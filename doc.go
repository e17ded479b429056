// Package picprk is a Go reproduction of the Particle-in-Cell (PIC)
// Parallel Research Kernel from "Design and Implementation of a Parallel
// Research Kernel for Assessing Dynamic Load-Balancing Capabilities"
// (Georganas, Van der Wijngaart, Mattson — IPDPS 2016).
//
// The repository contains the full system described by the paper:
//
//   - the PIC kernel itself (internal/core, internal/grid, internal/dist,
//     internal/particle): a self-verifying particle-move benchmark with
//     controllable load imbalance;
//   - a goroutine message-passing runtime standing in for MPI
//     (internal/comm) and an Adaptive-MPI-style virtual-processor runtime
//     with PUP migration (internal/ampi, internal/pup);
//   - the paper's three parallel reference implementations
//     (internal/driver): static 2D blocks, diffusion-based application
//     load balancing, and runtime-orchestrated VP balancing;
//   - a deterministic performance model of a cluster (internal/model) and
//     the experiment harness (internal/sweep) that regenerates every
//     figure of the paper's evaluation at its original 192–3,072 core
//     scales.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-reproduced results. cmd/picbench regenerates
// each figure (-quick for reduced scale); bench/ measures the real drivers.
package picprk
