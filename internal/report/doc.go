// Package report renders experiment results as aligned text tables, the
// output format of cmd/hotline-bench.
//
// In the DESIGN.md layering the package is a leaf: internal/experiments
// produces Tables, the CLI and sweep engine render them, and nothing here
// depends on any other substrate.
package report
