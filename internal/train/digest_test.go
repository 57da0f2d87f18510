package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"testing"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/par"
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
// rewritten (the mixed-tier entries before the shard service dropped its
// grow-at-first-touch routing path). Both executors agree on Kaggle, whose bags hold one row each;
// on the multi-hot datasets Hotline's µ-batches sum a row's gradients in
// another order. Change an entry only in a change that says why.
var runDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad":               "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/baseline/fp32/sgd":                   "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/baseline/hot-fp32+warm-int8/adagrad": "25663d49c02ed1a81bbc315ef5326cdf5b3de32a9677c1e4d2490315c9979e46",
	"kaggle/baseline/hot-fp32+warm-int8/sgd":     "44523b96521172fbe271884e1490e86350f3216a946a6ea1e6a0a98acfbd4d17",
	"kaggle/baseline/int8/adagrad":               "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/baseline/int8/sgd":                   "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"kaggle/hotline/fp32/adagrad":                "11277ee049fc95ef68a6ba8a531c35f60490952f98923c21d22bacb4a306a252",
	"kaggle/hotline/fp32/sgd":                    "3d189b3bb48f1918d019f3b28da9495a8efa03ce124018149c5f1e446bd97b12",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad":  "25663d49c02ed1a81bbc315ef5326cdf5b3de32a9677c1e4d2490315c9979e46",
	"kaggle/hotline/hot-fp32+warm-int8/sgd":      "44523b96521172fbe271884e1490e86350f3216a946a6ea1e6a0a98acfbd4d17",
	"kaggle/hotline/int8/adagrad":                "893d774fa85a731c91cf33a0a87b0201693cf2fa10a98dbe3697f6737cf3e16b",
	"kaggle/hotline/int8/sgd":                    "4db8044f858ddbbc0ec803c0b81c395acabd403edfc9bd654e9d7381901cd9ca",
	"synmh/baseline/fp32/adagrad":                "b54b58e62693e50fad20b2b83492d3b76499cebe2b54070e18d390c47ce93899",
	"synmh/baseline/fp32/sgd":                    "e4080ead22d2721fcd2123234d3f8e1171e1d2739f6360bec6b099b00a7d3152",
	"synmh/baseline/hot-fp32+warm-int8/adagrad":  "9e243af464b6c327b7c16c8be3766580408706a41b4eb953e32f65ba829de885",
	"synmh/baseline/hot-fp32+warm-int8/sgd":      "ec88a8a45aedae64f41e0fd4b63d3f9743483fa56557c4bf7cd22e1a4686b851",
	"synmh/baseline/int8/adagrad":                "43c554abd0aa6f55d203467594ca08090d0700bdf94b7c82e3464a7bdc5ba2c5",
	"synmh/baseline/int8/sgd":                    "affc5f7ce80f054418d54375e8d56e866dfc7c52b46f831c0ec05e00f27e684f",
	"synmh/hotline/fp32/adagrad":                 "f61248f6ed1790cec74b609d9bb29628f5bdb18af3a5bee35277215dd342785c",
	"synmh/hotline/fp32/sgd":                     "e1b1b0a93380532c118068c35c3f190c8fd2df552d56fb7847b06937c9a15da9",
	"synmh/hotline/hot-fp32+warm-int8/adagrad":   "c7d0eb48c95f6876eb18b908e1da48473be2445aef6d3a3eb3f029485681f031",
	"synmh/hotline/hot-fp32+warm-int8/sgd":       "9354406362e4251387d3e951338b9fa5feec3ef02687a11948a24e9e07abcf33",
	"synmh/hotline/int8/adagrad":                 "a5a8bc32f5d21904133ac91b86e34f9ec9edf4fd1acdddec25cbaf221534ae94",
	"synmh/hotline/int8/sgd":                     "d123d4bc9aa9adf8c983d7c8c922d7d7ddde7a12bc873a337e4d62edbb15b100",
	"tbsm/baseline/fp32/adagrad":                 "d0c6133839c096b44625120b416d15aa210cd863aca4a2775dd3f90f9f6d553f",
	"tbsm/baseline/fp32/sgd":                     "b761d708c10901baddd66b7b5f1306a41b4b056498c9b64eef328110faa8e315",
	"tbsm/baseline/hot-fp32+warm-int8/adagrad":   "d3982dfafb264fbb0b8f0cb3447a1f2b12307aef4fe0173175ffd2bddd6324e9",
	"tbsm/baseline/hot-fp32+warm-int8/sgd":       "e4fdb189337e331040fe8af6231ddb726603f4804dbaea94c5c5b29222181af9",
	"tbsm/baseline/int8/adagrad":                 "97cc5a19a80dff217aa395be52bfa998a55f5a195e02e18982f8d6414bfa609f",
	"tbsm/baseline/int8/sgd":                     "0ffe205fb132a42d02b6ccae8b0cdf8aeed8ed08b32ed755bc178940adf6bca8",
	"tbsm/hotline/fp32/adagrad":                  "77702e0738edf195157ec28c33a894b2e0f349f78f5c45122dd32a62b8b919bf",
	"tbsm/hotline/fp32/sgd":                      "7cd3c1b780542d38cc5d4b8102dc5cffffd8e27bc11fa34d6c4cb395ac80b95c",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad":    "c79b0312840dc7d866b411c4a6a5735605ef9d964040eeceae2d7261f357277d",
	"tbsm/hotline/hot-fp32+warm-int8/sgd":        "98e21d19acb114279d241e74cf15bbbd0218377b458a197e1e9bb25fa5ac749a",
	"tbsm/hotline/int8/adagrad":                  "978efc235585205ef3afe0739e5e14e20d6dcd4dc50e0e2fa8a60526c0aa8688",
	"tbsm/hotline/int8/sgd":                      "72fa39b259aa920aaa0e121feeb7d617f63083818f4cada074a8fb428579df0a",
}

// countDigests is the second checked-in table: one SHA-256 per sharded
// cell's class and depth over the service's training and serve counters
// (runDigest), so a change that moves a hit, a miss, an eviction, a window
// or a repair fails here even where every bit of state survives it. The
// node count is 4 in every entry. Change an entry only in a change that says
// why.
var countDigests = map[string]string{
	"kaggle/baseline/fp32/adagrad/d1":               "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/baseline/fp32/sgd/d1":                   "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/baseline/hot-fp32+warm-int8/adagrad/d1": "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/baseline/hot-fp32+warm-int8/sgd/d1":     "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/baseline/int8/adagrad/d1":               "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"kaggle/baseline/int8/sgd/d1":                   "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"kaggle/hotline/fp32/adagrad/d1":                "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/hotline/fp32/adagrad/d4":                "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/hotline/fp32/sgd/d1":                    "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/hotline/fp32/sgd/d4":                    "68d66436d2804277e38a9e6a3224d280ac0babe5848b6c5a6a24870598191151",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d1":  "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/hotline/hot-fp32+warm-int8/adagrad/d4":  "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d1":      "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/hotline/hot-fp32+warm-int8/sgd/d4":      "ea51f106c46982408f3d3bacb089f80f86552ae4f5e3a9c7ddc09b7a22439492",
	"kaggle/hotline/int8/adagrad/d1":                "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"kaggle/hotline/int8/adagrad/d4":                "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"kaggle/hotline/int8/sgd/d1":                    "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"kaggle/hotline/int8/sgd/d4":                    "35c4f342ed161fa8ea48884ff6fa5e66b91d55b6fa2a8eb11e0aeb21692b3d8b",
	"synmh/baseline/fp32/adagrad/d1":                "62fdb4e7e3a736f7dc60715d6ea2814fc83fbd8636db8aa17ccd4522f0024565",
	"synmh/baseline/fp32/sgd/d1":                    "62fdb4e7e3a736f7dc60715d6ea2814fc83fbd8636db8aa17ccd4522f0024565",
	"synmh/baseline/hot-fp32+warm-int8/adagrad/d1":  "df1c4e2c656a6712ff424c2d160ad0617910f559774928a809f52f3251db4d7a",
	"synmh/baseline/hot-fp32+warm-int8/sgd/d1":      "df1c4e2c656a6712ff424c2d160ad0617910f559774928a809f52f3251db4d7a",
	"synmh/baseline/int8/adagrad/d1":                "a64f1b0b5a3a668679db2274db81a77393714745488960bb9fdce1440689aa3c",
	"synmh/baseline/int8/sgd/d1":                    "a64f1b0b5a3a668679db2274db81a77393714745488960bb9fdce1440689aa3c",
	"synmh/hotline/fp32/adagrad/d1":                 "62864f45edf8e4ace963dff1a777a152c9b64a512c45b58b6f4cedcfd963a4d5",
	"synmh/hotline/fp32/adagrad/d4":                 "be09f4885cdf208285e6f381e0de59df403aa0200d5570e664df9e9ac583546a",
	"synmh/hotline/fp32/sgd/d1":                     "62864f45edf8e4ace963dff1a777a152c9b64a512c45b58b6f4cedcfd963a4d5",
	"synmh/hotline/fp32/sgd/d4":                     "be09f4885cdf208285e6f381e0de59df403aa0200d5570e664df9e9ac583546a",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d1":   "d34b03cf077086779232c9802c29c519298f1fd892b3bf82aea0d905cb52e8bd",
	"synmh/hotline/hot-fp32+warm-int8/adagrad/d4":   "5a879352cb3810ed025fa0ef373cd4891c552f312e6f89a24b942163d948c8ad",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d1":       "d34b03cf077086779232c9802c29c519298f1fd892b3bf82aea0d905cb52e8bd",
	"synmh/hotline/hot-fp32+warm-int8/sgd/d4":       "5a879352cb3810ed025fa0ef373cd4891c552f312e6f89a24b942163d948c8ad",
	"synmh/hotline/int8/adagrad/d1":                 "17cf88a49509499afba98ed4984a863904fa3860675d3741a72d64d499e147d2",
	"synmh/hotline/int8/adagrad/d4":                 "ecc8bf72f7ed2c9ccf8ad1268ab24b0f838d682f277b0e43810168e440d1747e",
	"synmh/hotline/int8/sgd/d1":                     "17cf88a49509499afba98ed4984a863904fa3860675d3741a72d64d499e147d2",
	"synmh/hotline/int8/sgd/d4":                     "ecc8bf72f7ed2c9ccf8ad1268ab24b0f838d682f277b0e43810168e440d1747e",
	"tbsm/baseline/fp32/adagrad/d1":                 "f166b0c848871cb0be67cb84134ba2c74204eabd884211c81e0553516171a2cd",
	"tbsm/baseline/fp32/sgd/d1":                     "f166b0c848871cb0be67cb84134ba2c74204eabd884211c81e0553516171a2cd",
	"tbsm/baseline/hot-fp32+warm-int8/adagrad/d1":   "cd2979164af425899c66ab508e51526a4d1d305e6df5a64eb23192f29779dce4",
	"tbsm/baseline/hot-fp32+warm-int8/sgd/d1":       "cd2979164af425899c66ab508e51526a4d1d305e6df5a64eb23192f29779dce4",
	"tbsm/baseline/int8/adagrad/d1":                 "52c0bc5d0b3d1e0bb8f86ccbc2df27cdf99129dcbf52a49ba6720beeb8d82ad2",
	"tbsm/baseline/int8/sgd/d1":                     "52c0bc5d0b3d1e0bb8f86ccbc2df27cdf99129dcbf52a49ba6720beeb8d82ad2",
	"tbsm/hotline/fp32/adagrad/d1":                  "3eee2eb59bae734377528d913f391f191f52a8d27b92dfbc10fbc5e2495ebb89",
	"tbsm/hotline/fp32/adagrad/d4":                  "8805eb536ef9f90d286ff1e2e1b6278efcb2594dadffa09f695baa277692b14e",
	"tbsm/hotline/fp32/sgd/d1":                      "3eee2eb59bae734377528d913f391f191f52a8d27b92dfbc10fbc5e2495ebb89",
	"tbsm/hotline/fp32/sgd/d4":                      "8805eb536ef9f90d286ff1e2e1b6278efcb2594dadffa09f695baa277692b14e",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d1":    "437cce00498a28ae0a8c9843d7d02b4d02cb83be7ba5ec0589fe0db4f18493ea",
	"tbsm/hotline/hot-fp32+warm-int8/adagrad/d4":    "68c54953b0238489c02e4f5de565fb8d0bd34e32488520fface3777cc428c45c",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d1":        "437cce00498a28ae0a8c9843d7d02b4d02cb83be7ba5ec0589fe0db4f18493ea",
	"tbsm/hotline/hot-fp32+warm-int8/sgd/d4":        "68c54953b0238489c02e4f5de565fb8d0bd34e32488520fface3777cc428c45c",
	"tbsm/hotline/int8/adagrad/d1":                  "6324cde83291f587e4e50622e64ebc59c7b7e0412d09ff37b7a447a20ba0578d",
	"tbsm/hotline/int8/adagrad/d4":                  "a900895acd29c6d0b4e92418428104865e323d1a2f1f4bbe766c9ec932b48d7f",
	"tbsm/hotline/int8/sgd/d1":                      "6324cde83291f587e4e50622e64ebc59c7b7e0412d09ff37b7a447a20ba0578d",
	"tbsm/hotline/int8/sgd/d4":                      "a900895acd29c6d0b4e92418428104865e323d1a2f1f4bbe766c9ec932b48d7f",
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

// countsKey names the counts a sharded cell must leave: the pipeline depth
// moves them (windows, repairs), the node count is always 4.
func (c digestCell) countsKey() string {
	return fmt.Sprintf("%s/d%d", c.class(), c.depth)
}

// runDigest trains c from fixed seeds and returns the SHA-256 of every
// state bit the run leaves: the dense parameters, every table's rows, the
// update rule's state, and the click probabilities a shadow serves for a
// fixed set of requests, each float32 as its four little-endian bytes. A
// sharded cell also returns the SHA-256 of its service's counters: the
// training snapshot after the run and the serve snapshot after the requests,
// wall clocks zeroed. It runs on one worker, since the counts of concurrent
// µ-batch passes depend on scheduling (the bits do not); "" when unsharded.
func runDigest(t *testing.T, c digestCell) (state, counts string) {
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
		defer par.SetWorkers(par.SetWorkers(1))
		const cache = 64 << 10
		var hot shard.HotClassifier
		if c.quant == shard.QuantMixed {
			hot = digestHotSet(c.dataset, cfg, cache/2)
		}
		svc = shard.New(shard.Config{
			Nodes: c.nodes, CacheBytes: cache, RowBytes: int64(cfg.EmbedDim) * 4, Quant: c.quant,
		}, hot)
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
	if c.quant == shard.QuantMixed && svc.Snapshot().QuantHits == 0 {
		t.Errorf("%s depth %d nodes %d: no warm-tier hit, the mixed cell trains as fp32", c.class(), c.depth, c.nodes)
	}

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
	state = hex.EncodeToString(h.Sum(nil))
	if svc != nil {
		sum := sha256.Sum256(fmt.Appendf(nil, "%+v\n%+v", svc.Snapshot().WithoutWall(), svc.ServeSnapshot().WithoutWall()))
		counts = hex.EncodeToString(sum[:])
	}
	return state, counts
}

// digestHotSets memoises digestHotSet per dataset.
var digestHotSets sync.Map

// digestHotSet is the mixed cells' classifier, learned as the benchmark
// learns its own: the exact fp32 hot set of a 512-sample-batch profile epoch
// at budget bytes. A nil classifier would count every row as hot and turn
// QuantMixed into all-fp32.
func digestHotSet(dataset string, cfg data.Config, budget int64) shard.HotClassifier {
	if p, ok := digestHotSets.Load(dataset); ok {
		return p.(*embedding.Placement)
	}
	prof := data.ProfileEpoch(data.NewGenerator(cfg), 512)
	p := embedding.PlacementFromCounts(prof.Counts(), cfg.NumTables, cfg.EmbedDim, budget)
	digestHotSets.Store(dataset, p)
	return p
}

func putFloats(h hash.Hash, vs []float32) {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

// digestGrid is executor x depth {1, 4} x quant {off, int8, mixed} x rule {SGD,
// Adagrad} x nodes {1, 4} x dataset, less the cells that mean nothing: a
// quantized cache needs a sharded service, and the baseline executor has no
// pipeline depth. The mixed cells run on a learned classifier (digestHotSet)
// and fail when they serve no warm-tier hit.
func digestGrid() []digestCell {
	var cells []digestCell
	for _, ds := range []string{"kaggle", "synmh", "tbsm"} {
		for _, ex := range []string{"baseline", "hotline"} {
			for _, nodes := range []int{1, 4} {
				for _, q := range []shard.QuantMode{shard.QuantOff, shard.QuantINT8, shard.QuantMixed} {
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
// change to a chain that a kernel and its reference share. Each sharded
// cell's counters must also leave the entry in countDigests. -short runs
// every third cell of the grid.
func TestTrainingRunDigest(t *testing.T) {
	for i, c := range digestGrid() {
		if testing.Short() && i%3 != 0 {
			continue
		}
		state, counts := runDigest(t, c)
		if want := runDigests[c.class()]; state != want {
			t.Errorf("%s depth %d nodes %d: state digest %s, want %s", c.class(), c.depth, c.nodes, state, want)
		}
		if want := countDigests[c.countsKey()]; c.nodes > 1 && counts != want {
			t.Errorf("%s nodes %d: counts digest %s, want %s", c.countsKey(), c.nodes, counts, want)
		}
	}
}
