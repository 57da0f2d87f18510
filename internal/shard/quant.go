package shard

import "hotline/internal/tensor"

// Precision-tiered device caches.
//
// The binding resource of a Hotline node is HBM bytes, not row slots, so the
// device cache is byte-budgeted and every cached entry carries a storage
// width. Hot rows stay fp32; warm rows are admitted at a narrow width (int8
// with a symmetric per-row scale, or fp16), so the same byte budget holds
// 2-4x more rows. A hit on a narrow entry is served through the fused
// dequantize-gather kernel: the row's current authoritative bits are read
// from the table's registered row view (RegisterTable's src) and pushed
// through quantize→dequantize straight into the pooled staging buffer, with
// the next rows prefetched (Staging.fillQuant) — the value a coherent
// warm-tier replica would hold — so the quantization error
// is real and measured (mn-quant prices it in AUC), while the repair path
// re-runs the same kernel on dirty rows, keeping every pipeline depth
// bit-identical to batch-by-batch stepping in quantized mode. With
// quantization off nothing narrows and training is bit-identical to the
// fp32-only cache.

// Width is a cached row's storage precision.
type Width uint8

const (
	// WidthFP32 stores full-precision rows (4 bytes per element).
	WidthFP32 Width = iota
	// WidthFP16 stores IEEE 754 binary16 rows (2 bytes per element).
	WidthFP16
	// WidthINT8 stores symmetric per-row-scaled int8 rows (1 byte per
	// element plus a 4-byte float32 scale).
	WidthINT8
)

// String names the width for reports.
func (w Width) String() string {
	switch w {
	case WidthFP16:
		return "fp16"
	case WidthINT8:
		return "int8"
	default:
		return "fp32"
	}
}

// RowBytes returns one cached row's footprint at this width for an embedding
// dimension of dim elements (the int8 format carries its per-row scale).
func (w Width) RowBytes(dim int) int64 {
	switch w {
	case WidthFP16:
		return 2 * int64(dim)
	case WidthINT8:
		return int64(dim) + tensor.I8RowOverheadBytes
	default:
		return 4 * int64(dim)
	}
}

// QuantMode selects the device caches' precision tiering.
type QuantMode uint8

const (
	// QuantOff is the default: every admitted row is fp32 and training is
	// bit-identical to the pre-quantization cache.
	QuantOff QuantMode = iota
	// QuantFP16 admits every cached row as fp16.
	QuantFP16
	// QuantINT8 admits every cached row as int8.
	QuantINT8
	// QuantMixed is the precision-tiered mode: popularity-classified hot
	// rows stay fp32, everything else is admitted into the warm tier as
	// int8. With a nil classifier every row counts as hot (all-fp32).
	QuantMixed
)

// String names the mode for reports.
func (m QuantMode) String() string {
	switch m {
	case QuantFP16:
		return "fp16"
	case QuantINT8:
		return "int8"
	case QuantMixed:
		return "hot-fp32+warm-int8"
	default:
		return "fp32"
	}
}

// WarmWidth returns the width non-hot (warm) rows are admitted at — the
// width the effective-capacity repricing reasons in.
func (m QuantMode) WarmWidth() Width {
	switch m {
	case QuantFP16:
		return WidthFP16
	case QuantINT8, QuantMixed:
		return WidthINT8
	default:
		return WidthFP32
	}
}

// admit is the tiering admission rule for one remote row of the given
// popularity: whether the probing node's cache admits it and at what storage
// width. Uniform modes (QuantOff, QuantFP16, QuantINT8) keep the popularity
// gate — only classified-hot rows replicate, at the mode's single width.
// QuantMixed admits everything: classified-hot rows at full fp32, the rest
// into the warm tier at int8 (a nil classifier counts every row as hot, so
// Mixed degenerates to all-fp32 — tiering needs a real popularity signal).
//
//hotline:hotpath
func (m QuantMode) admit(hot bool) (Width, bool) {
	if m == QuantMixed {
		if hot {
			return WidthFP32, true
		}
		return WidthINT8, true
	}
	return m.hotWidth(), hot
}

// hotWidth returns the width popularity-classified rows are admitted at.
func (m QuantMode) hotWidth() Width {
	switch m {
	case QuantFP16:
		return WidthFP16
	case QuantINT8:
		return WidthINT8
	default: // QuantOff, QuantMixed: hot rows keep full precision
		return WidthFP32
	}
}

// dequantRowInto runs the fused dequantize-gather kernel for one cached row:
// the current authoritative bits of src are pushed through the width's
// quantize→dequantize round trip straight into the staging slot dst (no
// narrow row is materialized, no allocation happens). WidthFP32 is a plain
// copy.
//
//hotline:hotpath
func dequantRowInto(dst, src []float32, w Width) {
	switch w {
	case WidthFP16:
		tensor.RoundTripF16(dst, src)
	case WidthINT8:
		tensor.RoundTripI8(dst, src)
	default:
		copy(dst, src)
	}
}
