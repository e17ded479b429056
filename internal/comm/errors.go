package comm

import (
	"fmt"
	"time"
)

// ErrPeerLost reports that the process hosting a rank vanished mid-run:
// its connection hit EOF without the orderly BYE handshake, a write to it
// failed, or a mesh dial to it was refused after the rendezvous admitted
// it. The wire transport converts raw socket errors into this type and
// broadcasts it through the abort channel, so every survivor's World.Run
// returns an error satisfying errors.As(err, &ErrPeerLost{}) instead of
// hanging in a collective. Supervisors (driver.Engine recovery) match on
// it to distinguish a recoverable crash from a programming error.
type ErrPeerLost struct {
	// Rank is the lowest world rank the lost process hosted, or -1 when
	// the transport could not attribute the failure to a specific peer
	// (e.g. the local endpoint was torn down).
	Rank int
}

func (e ErrPeerLost) Error() string {
	if e.Rank < 0 {
		return "comm: peer lost (rank unknown)"
	}
	return fmt.Sprintf("comm: peer hosting rank %d lost", e.Rank)
}

// ErrRecvTimeout reports a Recv that waited longer than Options.RecvTimeout
// for a matching message: Recv panics with it and World.Run returns it
// wrapped, so errors.As finds it on the run's error.
type ErrRecvTimeout struct {
	Rank  int           // the receiving rank
	Src   int           // the source it waited on (AnySource for any)
	Tag   int           // the tag it waited on
	After time.Duration // how long it waited
}

func (e ErrRecvTimeout) Error() string {
	return fmt.Sprintf("comm: rank %d recv(src=%d, tag=%d) timed out after %v", e.Rank, e.Src, e.Tag, e.After)
}
