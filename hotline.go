// Package hotline is the public API of this reproduction of "Heterogeneous
// Acceleration Pipeline for Recommendation System Training" (ISCA 2024).
//
// The package re-exports the stable surface of the internal substrates:
//
//   - Dataset configs and synthetic generators (the paper's Table II
//     workloads with Zipfian popularity and day-to-day drift);
//   - Functional DLRM/TBSM models with full forward/backward/SGD;
//   - The training executors: the standard baseline and the Hotline
//     µ-batch executor with its accelerator-backed input classification;
//   - The accelerator model (EAL, lookup engines, ISA, power);
//   - The performance simulator: system specs, workloads, and the seven
//     training pipelines the paper compares;
//   - The experiment harness that regenerates every table and figure.
//
// See examples/ for runnable entry points and DESIGN.md for the system map.
package hotline

import (
	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/experiments"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// --- parallelism -----------------------------------------------------------

// Parallelism sets the worker count used by every parallel substrate — the
// batch-sharded tensor/embedding kernels, the Hotline trainer's concurrent
// µ-batch passes — and returns the previous setting. n <= 0 restores the
// default (one worker per CPU core). Results are bit-identical for every
// setting: shards only partition independent work, and cross-shard gradient
// reductions happen in fixed index order.
func Parallelism(n int) int { return par.SetWorkers(n) }

// NumWorkers returns the effective worker count (>= 1).
func NumWorkers() int { return par.Workers() }

// --- datasets and generators ---------------------------------------------

// DatasetConfig describes one synthetic workload (paper Table II shape).
type DatasetConfig = data.Config

// Generator produces deterministic mini-batches for a dataset.
type Generator = data.Generator

// Batch is one mini-batch of dense features, sparse indices and labels.
type Batch = data.Batch

// Dataset constructors (paper Table II).
var (
	// CriteoKaggle returns the RM2 workload (DLRM, 26 sparse features).
	CriteoKaggle = data.CriteoKaggle
	// TaobaoAlibaba returns the RM1 workload (TBSM with attention).
	TaobaoAlibaba = data.TaobaoAlibaba
	// CriteoTerabyte returns the RM3 workload (DLRM, 266M rows).
	CriteoTerabyte = data.CriteoTerabyte
	// SynM1 returns the 196 GB multi-hot synthetic model (Fig 28/30).
	SynM1 = data.SynM1
	// SynM2 returns the 390 GB multi-hot synthetic model.
	SynM2 = data.SynM2
)

// Datasets returns the four real-world workloads in paper order.
func Datasets() []DatasetConfig { return data.AllDatasets() }

// DatasetByName resolves a dataset by name or RM id ("RM3").
var DatasetByName = data.ByName

// NewGenerator builds a batch generator positioned at day 0.
func NewGenerator(cfg DatasetConfig) *Generator { return data.NewGenerator(cfg) }

// --- functional models and training --------------------------------------

// Model is a DLRM or TBSM instance with full backprop.
type Model = model.Model

// NewModel builds a model with deterministic weights derived from seed.
func NewModel(cfg DatasetConfig, seed uint64) *Model { return model.New(cfg, seed) }

// Trainer is the one executor interface: StepLookahead trains on a
// mini-batch and may stage the Lookahead() batches that follow it
// (classification + fabric prefetch), bit-identical to batch-by-batch
// stepping for every depth. Both executors also offer Step(b), the
// StepLookahead(b, nil) shorthand.
type Trainer = train.Trainer

// TrainRunConfig controls a training run.
type TrainRunConfig = train.RunConfig

// NewBaselineTrainer returns the standard mini-batch SGD executor.
func NewBaselineTrainer(m *Model, lr float32) *train.Baseline { return train.NewBaseline(m, lr) }

// NewHotlineTrainer returns the µ-batch executor backed by the accelerator's
// EAL classification. Its updates are at parity with the baseline (Eq. 5).
func NewHotlineTrainer(m *Model, lr float32) *train.HotlineTrainer {
	return train.NewHotline(m, lr)
}

// RunTraining trains and returns the metric curve, stepping the trainer at
// its own pipeline depth.
var RunTraining = train.Run

// StepAll trains on pre-drawn batches in stream order, handing each step
// the trainer's Lookahead() following batches; before (may be nil) runs
// ahead of step i. It returns every step's loss.
var StepAll = train.StepAll

// RunParity trains both executors from identical state (Fig 18 / Table V).
var RunParity = train.Parity

// MaxModelStateDiff returns the largest absolute parameter difference
// between two models across dense and sparse state (0 when bit-identical).
var MaxModelStateDiff = model.MaxStateDiff

// --- sharded embedding service --------------------------------------------

// ShardConfig sizes a sharded embedding service: node count, per-node
// device-cache budget, row footprint and eviction policy.
type ShardConfig = shard.Config

// ShardService partitions embedding rows across simulated nodes with
// bounded per-node hot-entry device caches, and accounts every gather and
// gradient scatter the topology incurs.
type ShardService = shard.Service

// CacheSRRIP selects the SRRIP/CLOCK device-cache eviction policy in
// ShardConfig.Policy and ShardProbe.Policy (the zero value is exact LRU).
const CacheSRRIP = shard.PolicySRRIP

// NewShardService builds a sharded embedding service. The classifier
// decides which rows may replicate into device caches (nil admits all).
var NewShardService = shard.New

// NewHotlineShardedTrainer wraps a model in the Hotline executor with its
// embedding tables routed through the service (each row owned by one of
// its nodes; the tables themselves are not copied). Training is
// bit-identical to NewHotlineTrainer for every node count and placement;
// the service additionally reports the measured cache and all-to-all
// traffic. Gathers run on the service's gather engine and overlap compute
// at the default depth (set Depth = 1 on the returned trainer for
// synchronous gathers).
func NewHotlineShardedTrainer(m *Model, lr float32, svc *ShardService) *train.HotlineTrainer {
	return train.NewHotlineSharded(m, lr, svc)
}

// ShardMeasurement carries measured sharding statistics (hit-rates,
// gather/scatter fractions, bytes per iteration, exposed-gather fraction)
// for the timing models.
type ShardMeasurement = pipeline.ShardMeasurement

// ShardProbe configures a MeasureShard measurement: node count, cache
// budget, batch size, eviction policy and ownership placement.
type ShardProbe = pipeline.ShardProbe

// MeasureShard replays a real access stream against a sharded service under
// the probe's eviction policy and ownership placement (round-robin,
// capacity-weighted, hot-aware) and returns steady-state measurements
// (memoised per full probe identity).
var MeasureShard = pipeline.MeasureShard

// NewShardedWorkload assembles a workload whose timing models consume
// measured sharding statistics instead of analytic popularity fractions,
// with the dataset's scaled hot-set budget of device cache per node. The
// exposed-gather fraction is measured too, at depth 2 (the depth executors
// start with), so the Hotline model prices overlap from the pipelined
// engine.
var NewShardedWorkload = pipeline.NewShardedWorkload

// DefaultShardCacheBytes returns the default per-node device-cache budget
// for a dataset (its scaled hot-set budget).
var DefaultShardCacheBytes = pipeline.DefaultShardCacheBytes

// --- ownership placement, gather overlap and the socket fabric ------------

// ShardPlacementKind names the shipped ownership policies for probes and
// reports.
type ShardPlacementKind = shard.PlacementKind

// Shipped ownership placements.
const (
	PlaceRoundRobin = shard.PlaceRoundRobin
	PlaceCapacity   = shard.PlaceCapacity
	PlaceHotAware   = shard.PlaceHotAware
)

// ShardStats is a sharded service's counter block (svc.Snapshot()): the
// traffic it routed, the transport walls, its gather engine's measured
// traffic and how much of that wall time stayed exposed, and recovery.
type ShardStats = shard.Stats

// FabricProbe configures a MeasureFabric run: node count, pipeline depth,
// iteration/batch budget, and either the socket family of a local fabric to
// start ("unix"/"tcp"; "inproc" measures the reference only) or an
// already-dialed transport.
type FabricProbe = pipeline.FabricProbe

// FabricMeasurement is one functional training run over a real fabric:
// measured gather/scatter wall clock plus bit-parity evidence against the
// in-proc reference.
type FabricMeasurement = pipeline.FabricMeasurement

// MeasureFabric trains the pipelined executor over the probe's fabric and
// the in-proc reference and returns the measured wall times and parity.
var MeasureFabric = pipeline.MeasureFabric

// --- online serving and the load harness -----------------------------------

// Server answers prediction requests from weight-sharing model replicas,
// beside each other and beside a trainer's passes on the same weights: a
// request waits only for the trainer's update (the model's own parameter
// lock orders the two) and is answered from the parameters of one step
// boundary. The read path never consumes prefetch windows or touches
// backward state, so a mixed train+serve run leaves training bit-identical
// to train-only; serve traffic is booked into the shard service's
// serve-side counters (ShardService.ServeSnapshot) while still warming the
// shared device caches.
type Server = serve.Server

// NewServer wraps a model in n predict replicas (model shadows; n <= 0
// means 1). Train the model through a Trainer (or Model.TrainStep), which
// apply their update under the model's parameter lock; Server.Train keeps
// two trainers apart.
var NewServer = serve.NewServer

// ServeCorpus is a deterministic request stream across drift days.
type ServeCorpus = serve.Corpus

// BuildServeCorpus draws a corpus from the Zipf/drifting generator:
// perDay request batches of batchSize samples for each of days days.
var BuildServeCorpus = serve.BuildCorpus

// LoadConfig drives one open-loop load run (target QPS, request cap,
// player bound).
type LoadConfig = serve.LoadConfig

// LoadReport is one load run's throughput and latency measurements.
type LoadReport = serve.LoadReport

// RunLoad replays a corpus against a server at a target QPS with bounded
// parallel request players; latency is measured from each request's
// scheduled arrival, so saturation shows up as queueing in the tail.
var RunLoad = serve.RunLoad

// SaturationSweep replays the corpus at each target rate, producing the
// QPS-vs-latency curve.
var SaturationSweep = serve.SaturationSweep

// LoadKnee returns the index of the highest-rate sweep point whose p99
// stays within budget (-1 when none does).
var LoadKnee = serve.Knee

// --- accelerator ----------------------------------------------------------

// Accelerator is the functional + timing model of the Hotline accelerator.
type Accelerator = accel.Accelerator

// AcceleratorConfig bundles EAL/engine/reducer/eDRAM settings (Table IV).
type AcceleratorConfig = accel.Config

// NewAccelerator builds an accelerator; DefaultAcceleratorConfig matches
// the paper's Table IV.
func NewAccelerator(cfg AcceleratorConfig) *Accelerator { return accel.New(cfg) }

// DefaultAcceleratorConfig is the paper's accelerator configuration.
var DefaultAcceleratorConfig = accel.DefaultConfig

// --- performance simulation ------------------------------------------------

// System is a simulated training server or cluster (paper Table III).
type System = cost.System

// PaperSystem returns the single-node evaluation server with n GPUs.
var PaperSystem = cost.PaperSystem

// PaperCluster returns an n-node cluster with 4 GPUs per node.
var PaperCluster = cost.PaperCluster

// Workload bundles a dataset, batch size and system for the timing models.
type Workload = pipeline.Workload

// NewWorkload assembles a workload with measured popularity statistics.
var NewWorkload = pipeline.NewWorkload

// TrainingPipeline is one training-system timing model.
type TrainingPipeline = pipeline.Pipeline

// IterStats is one steady-state iteration's timing and phase breakdown.
type IterStats = pipeline.IterStats

// Pipeline constructors (Pipelines returns all seven systems the paper
// compares).
var (
	// NewHotlinePipeline is the accelerator-pipelined Hotline system.
	NewHotlinePipeline = pipeline.NewHotline
	// NewIntelDLRMPipeline is the hybrid CPU-GPU Intel-optimized baseline.
	NewIntelDLRMPipeline = pipeline.NewIntelDLRM
	// NewHugeCTRPipeline is the GPU-only (model-parallel HBM) baseline.
	NewHugeCTRPipeline = pipeline.NewHugeCTR
)

// Pipelines returns every pipeline in figure order.
func Pipelines() []TrainingPipeline { return pipeline.All() }

// Speedup returns a.Total/b.Total (0 when either side OOMs).
var Speedup = pipeline.Speedup

// --- experiments ------------------------------------------------------------

// ExperimentTable is one regenerated table/figure.
type ExperimentTable = report.Table

// Experiments returns every experiment id (tab1..fig30).
func Experiments() []string { return experiments.All() }

// ExperimentTitle returns an experiment's title.
var ExperimentTitle = experiments.Title

// RunExperiment regenerates one table or figure by id, e.g. "fig19".
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// SweepExperiments runs the given experiment ids on a bounded worker pool
// and returns one result per id in input order — its table (or captured
// error) plus the wall-clock duration. workers <= 0 means NumCPU.
var SweepExperiments = experiments.Sweep

// EffectiveSweepWorkers reports the pool size SweepExperiments uses for a
// requested worker count and job count.
var EffectiveSweepWorkers = experiments.EffectiveWorkers

// RunAllExperiments regenerates experiments concurrently (every registered
// one when ids is empty) and returns their tables in stable id order. The
// sweep is deterministic: tables are byte-identical to serial RunExperiment
// calls for any worker count.
var RunAllExperiments = experiments.RunAll

// SetExperimentTrainIters adjusts functional-training experiment length.
var SetExperimentTrainIters = experiments.SetTrainIters
