package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

// digestDatasets are the model shapes the run digest trains: the
// benchmark's scaled Kaggle RM2 (13-64-16 bottom, 367-64-1 top: a ReLU-fed
// one-column output layer and an interaction output whose first 16 columns
// are ReLU outputs), a smaller SYN-MH (8 multi-hot tables at dim 64 behind a
// one-layer 100 -> 1 top) and TBSM (the attention path).
var digestDatasets = map[string]func() data.Config{
	"kaggle": func() data.Config {
		c := data.CriteoKaggle()
		c.BotMLP, c.TopMLP = []int{13, 64, 16}, []int{64, 1}
		return c
	},
	"synmh": func() data.Config {
		rows := []int{3000, 2000, 1500, 1000, 750, 500, 375, 250}
		full := make([]int64, len(rows))
		for i, r := range rows {
			full[i] = int64(r) * 1000
		}
		return data.Config{
			Name: "SYN-MH", RM: "SYN-MH",
			DenseFeatures: 13, NumTables: len(rows),
			FullRowsPerTable: full, ScaledRowsPerTable: rows,
			LookupsPerTable: 8, ZipfS: 1.2, DriftPerDay: 0.10, HotFracRows: 0.20,
			EmbedDim: 64, BotMLP: []int{13, 64}, TopMLP: []int{1},
			Samples: 4096, Seed: 0x5E4D, ScaleFactor: 1000, FullSizeGB: 2,
		}
	},
	"tbsm": data.TaobaoAlibaba,
}

// runDigests is the checked-in table: one SHA-256 per dataset, executor,
// quant mode and rule, computed before the dense GEMM drivers and ReLU were
// rewritten. Both executors agree on Kaggle, whose bags hold one row each;
// on the multi-hot datasets Hotline's µ-batches sum a row's gradients in
// another order. Change an entry only in a change that says why.
var runDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad": "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/baseline/fp32/sgd":     "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/baseline/int8/adagrad": "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/baseline/int8/sgd":     "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"kaggle/hotline/fp32/adagrad":  "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/hotline/fp32/sgd":      "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/hotline/int8/adagrad":  "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/hotline/int8/sgd":      "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"synmh/baseline/fp32/adagrad":  "b54b58e62693e50fad20b2b83492d3b76499cebe2b54070e18d390c47ce93899",
	"synmh/baseline/fp32/sgd":      "e4080ead22d2721fcd2123234d3f8e1171e1d2739f6360bec6b099b00a7d3152",
	"synmh/baseline/int8/adagrad":  "43c554abd0aa6f55d203467594ca08090d0700bdf94b7c82e3464a7bdc5ba2c5",
	"synmh/baseline/int8/sgd":      "affc5f7ce80f054418d54375e8d56e866dfc7c52b46f831c0ec05e00f27e684f",
	"synmh/hotline/fp32/adagrad":   "f61248f6ed1790cec74b609d9bb29628f5bdb18af3a5bee35277215dd342785c",
	"synmh/hotline/fp32/sgd":       "e1b1b0a93380532c118068c35c3f190c8fd2df552d56fb7847b06937c9a15da9",
	"synmh/hotline/int8/adagrad":   "a5a8bc32f5d21904133ac91b86e34f9ec9edf4fd1acdddec25cbaf221534ae94",
	"synmh/hotline/int8/sgd":       "d123d4bc9aa9adf8c983d7c8c922d7d7ddde7a12bc873a337e4d62edbb15b100",
	"tbsm/baseline/fp32/adagrad":   "d0c6133839c096b44625120b416d15aa210cd863aca4a2775dd3f90f9f6d553f",
	"tbsm/baseline/fp32/sgd":       "b761d708c10901baddd66b7b5f1306a41b4b056498c9b64eef328110faa8e315",
	"tbsm/baseline/int8/adagrad":   "97cc5a19a80dff217aa395be52bfa998a55f5a195e02e18982f8d6414bfa609f",
	"tbsm/baseline/int8/sgd":       "0ffe205fb132a42d02b6ccae8b0cdf8aeed8ed08b32ed755bc178940adf6bca8",
	"tbsm/hotline/fp32/adagrad":    "77702e0738edf195157ec28c33a894b2e0f349f78f5c45122dd32a62b8b919bf",
	"tbsm/hotline/fp32/sgd":        "7cd3c1b780542d38cc5d4b8102dc5cffffd8e27bc11fa34d6c4cb395ac80b95c",
	"tbsm/hotline/int8/adagrad":    "978efc235585205ef3afe0739e5e14e20d6dcd4dc50e0e2fa8a60526c0aa8688",
	"tbsm/hotline/int8/sgd":        "72fa39b259aa920aaa0e121feeb7d617f63083818f4cada074a8fb428579df0a",
}

// digestCell is one training run of the digest grid.
type digestCell struct {
	dataset  string
	executor string // "baseline" or "hotline"
	depth    int    // the hotline executor's pipeline depth
	quant    shard.QuantMode
	rule     string // "sgd" or "adagrad"
	nodes    int    // 1: unsharded tables; more: a shard.Service of that many nodes
}

// class names the digest c must leave: depth and node count never change a
// bit, so they are not part of it.
func (c digestCell) class() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.dataset, c.executor, c.quant, c.rule)
}

// runDigest trains c from fixed seeds and returns the SHA-256 of every
// state bit the run leaves: the dense parameters, every table's rows, the
// update rule's state, and the click probabilities a shadow serves for a
// fixed set of requests, each float32 as its four little-endian bytes.
func runDigest(t *testing.T, c digestCell) string {
	t.Helper()
	const seed, steps, batch, requests = 7, 6, 100, 61
	cfg := digestDatasets[c.dataset]()
	batches := data.NewGenerator(cfg).NextBatches(steps, batch)
	reqCfg := cfg
	reqCfg.Seed++
	reqs := data.NewGenerator(reqCfg).NextBatch(requests)

	m := model.New(cfg, seed)
	if c.rule == "adagrad" {
		m.SetOptimizer(model.NewAdagrad)
	}
	var svc *shard.Service
	if c.nodes > 1 {
		svc = shard.New(shard.Config{
			Nodes: c.nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4, Quant: c.quant,
		}, nil)
		defer svc.Close()
	}
	var tr Trainer
	switch c.executor {
	case "baseline":
		if svc != nil {
			m.ShardEmbeddings(svc)
		}
		tr = NewBaseline(m, 0.05)
	case "hotline":
		var h *HotlineTrainer
		if svc != nil {
			h = NewHotlineSharded(m, 0.05, svc)
		} else {
			h = NewHotline(m, 0.05)
		}
		h.Depth, h.LearnSamples = c.depth, 2*batch
		tr = h
	}
	StepAll(tr, batches, nil)

	h := sha256.New()
	for _, p := range m.DenseParams() {
		putFloats(h, p.Value.Data)
	}
	for _, b := range m.Tables {
		for r := range b.NumRows() {
			putFloats(h, b.RowView(r))
		}
	}
	for _, s := range m.RuleState() {
		putFloats(h, s.Data)
	}
	putFloats(h, model.NewShadow(m).ServePredictInto(nil, reqs))
	return hex.EncodeToString(h.Sum(nil))
}

func putFloats(h hash.Hash, vs []float32) {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

// digestGrid is executor x depth {1, 4} x quant {off, int8} x rule {SGD,
// Adagrad} x nodes {1, 4} x dataset, less the cells that mean nothing: a
// quantized cache needs a sharded service, and the baseline executor has no
// pipeline depth.
func digestGrid() []digestCell {
	var cells []digestCell
	for _, ds := range []string{"kaggle", "synmh", "tbsm"} {
		for _, ex := range []string{"baseline", "hotline"} {
			for _, nodes := range []int{1, 4} {
				for _, q := range []shard.QuantMode{shard.QuantOff, shard.QuantINT8} {
					if q != shard.QuantOff && nodes == 1 {
						continue
					}
					for _, depth := range []int{1, 4} {
						if depth > 1 && ex == "baseline" {
							continue
						}
						for _, rule := range []string{"sgd", "adagrad"} {
							cells = append(cells, digestCell{ds, ex, depth, q, rule, nodes})
						}
					}
				}
			}
		}
	}
	return cells
}

// TestTrainingRunDigest pins whole training runs bit for bit across builds
// and kernel paths: the dense kernels' assembly bodies and their generic
// loops (which a GOARCH=386 build takes everywhere) must each leave exactly
// the state in runDigests. Each kernel is compared with its own reference
// elsewhere; this catches two kernels that disagree where they meet, and a
// change to a chain that a kernel and its reference share. -short runs every
// third cell of the grid.
func TestTrainingRunDigest(t *testing.T) {
	for i, c := range digestGrid() {
		if testing.Short() && i%3 != 0 {
			continue
		}
		if got, want := runDigest(t, c), runDigests[c.class()]; got != want {
			t.Errorf("%s depth %d nodes %d: state digest %s, want %s", c.class(), c.depth, c.nodes, got, want)
		}
	}
}
