// Package interp executes the analyzed sequential program on sample
// inputs, producing the *runtime information* of the paper's semantic
// model: per-statement execution counts and (virtual) running times,
// plus the observed loop-carried dependencies of every executed loop,
// paired against shadow memory during a single run (Options.Dependences,
// loops.go) and summarized per loop by package profile. A full
// memory-access trace of one selected loop (Options.TargetLoop) remains
// as the reference that pairing is tested against.
//
// The paper instruments .NET executions; a Go reproduction cannot
// instrument arbitrary compiled Go, so this tree-walking interpreter is
// the documented substitution (DESIGN.md §2). It covers a defined Go
// subset and has two properties the original lacks:
//
//   - Determinism: time is a virtual cost counter (every AST node has
//     a fixed cost; intrinsics declare theirs), so profiles are
//     machine-independent and reproducible in tests.
//   - Precise addresses: every mutable cell (variable, slice element,
//     struct field, map entry) has a unique address, so the dependence
//     profiler sees exact may-alias-free accesses.
//
// # Supported subset
//
// Types: int (int64), float64, bool, string, slices, maps, structs
// (reference semantics, like the C# classes of the original), function
// values and closures, pointers to structs (aliases under reference
// semantics).
//
// Statements: assignments (including multi-assign, compound ops,
// swaps), var declarations, if/else, for, range over slices, maps
// (deterministic key order), strings and integers, switch,
// break/continue (unlabeled), return, blocks.
//
// Expressions: arithmetic/logic/comparison operators, indexing,
// slicing, selectors, composite literals, make/len/cap/append/copy/
// delete/min/max, int()/float64()/string() conversions, calls to
// program functions, methods, registered intrinsics and closures.
//
// Not supported (by design, documented in DESIGN.md): goroutines,
// channels, defer, goto, interfaces, generics. Corpus programs are
// written inside the subset; programs outside it still get the static
// half of the pipeline.
package interp
