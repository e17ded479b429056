module github.com/parres/picprk/bench

go 1.22

require github.com/parres/picprk v0.0.0

replace github.com/parres/picprk => ../
