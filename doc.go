// Package repro is a comprehensive Go reproduction of "Beyond Analytics:
// The Evolution of Stream Processing Systems" (Carbone, Fragkoulis, Kalavri,
// Katsifodimos — SIGMOD 2020): a full stream-processing engine and the
// surrounding subsystems covering all three generations the tutorial
// surveys.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/evolution prints Figure 1 and Table 1; the TestShape tests in this
// package pin the survey's comparative claims and log their tables
// (`go test -run TestShape -v .`); benchmark/ measures the engine end to end.
package repro
