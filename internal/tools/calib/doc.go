// Command calib is the developer calibration harness: it sweeps every
// training pipeline across GPU counts and datasets (weak scaling, as in
// paper Figure 19) and prints iteration times and speedups normalised to
// XDL. It exists to re-fit the cost-model constants in internal/cost
// whenever they change; the fit targets the paper's Figure 19 speedups,
// which hotline-bench -exp fig19 prints in its note, under the model's.
//
// It lives under internal/tools because it is a development aid, not part
// of the reproduction surface (cmd/ holds the user-facing binaries).
//
//	go run ./internal/tools/calib
package main
