//! Latency and memory estimation of an [`OptimizedGraph`] on a device.
//!
//! Each kernel group is profiled by *sampled trace analysis*: a window
//! of its iteration space is executed, generating the physical
//! addresses implied by the chosen layouts and (for eliminated
//! transformation chains) the composed index maps. From the trace we
//! measure each operand's **line drag** — the ratio of cache-line bytes
//! dragged from memory to useful bytes, i.e. the spatial-locality
//! quality of the layout for this access pattern (1.0 = perfect
//! streaming, up to `line/elem` for fully strided access). Texture
//! operands use 2-D tile granules, which is exactly the 2.5D-memory
//! advantage of Table 2.
//!
//! DRAM traffic per operand is then
//!
//! ```text
//! traffic = unique_bytes × line_drag × passes
//! ```
//!
//! where `passes` models how often the operand must be re-streamed
//! given on-chip tile reuse (GEMM/conv operands whose counterpart fits
//! in cache stream once; otherwise once per output tile strip), and the
//! roofline cost model of `smartmem-sim` turns traffic and ALU work
//! (including strength-reduced index arithmetic) into nanoseconds.
//! Identical group signatures are memoized (transformer blocks repeat
//! dozens of times).

use crate::lte::{is_eliminable, op_pullback};
use crate::pipeline::{EdgeRead, KernelGroup, OptimizedGraph};
use smartmem_index::IndexMap;
use smartmem_ir::{Graph, MemoryClass, Op, PhysicalAddress, Shape};
use smartmem_sim::{DeviceConfig, KernelProfile, LatencyClass, MemCounters, OpCost};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Output-space sample budget per kernel.
const MAX_OUT_SAMPLES: usize = 256;
/// Inner (reduction) loop sample budget per output point.
const MAX_INNER: usize = 16;
/// Amortization of index arithmetic across vectorized (`vec4`) loads:
/// one composed-index evaluation covers a vector of elements.
const INDEX_AMORTIZATION: f64 = 0.25;

/// Per-kernel estimation result.
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// Index into [`OptimizedGraph::groups`].
    pub index: usize,
    /// Latency bucket.
    pub class: LatencyClass,
    /// Latency decomposition.
    pub cost: OpCost,
    /// MACs executed.
    pub macs: u64,
    /// Scaled memory counters.
    pub counters: MemCounters,
}

/// Whole-model estimation result.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in giga-MACs per second (the paper's "Speed" column).
    pub gmacs: f64,
    /// Number of kernels launched.
    pub kernel_count: usize,
    /// Latency spent in compute kernels (ms).
    pub compute_ms: f64,
    /// Latency spent in explicit (model-authored) transformations (ms).
    pub explicit_ms: f64,
    /// Latency spent in implicit (framework-inserted) transformations (ms).
    pub implicit_ms: f64,
    /// Scaled memory counters (Fig. 7/9).
    pub mem: MemCounters,
    /// Estimated DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Peak memory footprint in bytes (weights + activations +
    /// workspaces under the framework's memory model).
    pub peak_memory_bytes: u64,
    /// Per-kernel details.
    pub groups: Vec<GroupReport>,
}

impl ModelReport {
    /// Fraction of latency spent in layout transformations (Table 1's
    /// `Imp. + Exp.` columns).
    pub fn transform_fraction(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            (self.explicit_ms + self.implicit_ms) / self.latency_ms
        }
    }

    /// Average computational intensity in MACs/byte (x-axis of Fig. 12).
    pub fn intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            0.0
        } else {
            (self.gmacs * self.latency_ms * 1e6) / self.dram_bytes as f64
        }
    }
}

/// Measured locality of one operand's sampled trace.
#[derive(Clone, Copy, Debug)]
struct EdgeTrace {
    /// Bytes dragged per useful byte, `[1, line/elem]`.
    drag: f64,
}

/// Memoized per-group trace results (last entry is the output write).
#[derive(Clone, Debug)]
struct GroupTrace {
    reads: Vec<EdgeTrace>,
    write: EdgeTrace,
}

impl OptimizedGraph {
    /// Estimates execution of the optimized model on `device`.
    pub fn estimate(&self, device: &DeviceConfig) -> ModelReport {
        let graph = &self.graph;
        let elem = device.dtype.size_bytes();
        let mut memo: HashMap<u64, GroupTrace> = HashMap::new();

        let line_buffer = device.buffer_cache.line_bytes as u64;
        let tile_texture = (device.texture_tiling.tile_w * device.texture_tiling.tile_h) * 4 * elem;

        let mut groups_out = Vec::with_capacity(self.groups.len());
        let mut total_ns = 0.0;
        let (mut compute_ns, mut explicit_ns, mut implicit_ns) = (0.0, 0.0, 0.0);
        let mut mem = MemCounters::default();
        let mut dram_bytes_total: u64 = 0;
        let mut total_macs: u64 = 0;

        for (gi, group) in self.groups.iter().enumerate() {
            let anchor = graph.node(group.anchor);
            let anchor_out_shape = &graph.tensor(anchor.outputs[0]).shape;
            let anchor_numel = anchor_out_shape.numel();
            let out_numel = graph.tensor(group.output).shape.numel();
            // A retained transformation kernel evaluates its own
            // pull-back on the anchor reads.
            let own_map = own_pullback(graph, group);
            let own_cost = own_map.as_ref().map(|m| m.cost().weighted());

            // --- Sampled trace (memoized) ----------------------------
            let trace = {
                let key = group_signature(graph, group);
                memo.entry(key)
                    .or_insert_with(|| trace_group(graph, group, own_map.as_ref(), device, elem))
                    .clone()
            };

            // --- Per-operand DRAM traffic ----------------------------
            let mut dram_buffer: u64 = 0;
            let mut dram_texture: u64 = 0;
            let mut accesses_buffer: u64 = 0;
            let mut accesses_texture: u64 = 0;
            let mut index_ops = 0.0f64;

            for (read, trace) in group.reads.iter().zip(trace.reads.iter()) {
                let is_anchor_read = read.member == group.anchor;
                let iter_numel = if is_anchor_read { anchor_numel } else { out_numel } as f64;
                let ppr = if is_anchor_read {
                    per_point_reads(graph, &anchor.op, read, anchor_out_shape)
                } else {
                    1.0
                };
                let accesses = ppr * iter_numel;
                let src_bytes = graph.tensor(read.source).shape.numel() * elem;
                let unique = (src_bytes as f64).min(accesses * elem as f64);
                // Operands that fit in cache stay resident after the
                // compulsory fetch: traffic is just the footprint. Only
                // streamed operands pay line drag and re-streaming
                // passes.
                let cache = match read.layout.memory_class() {
                    MemoryClass::Buffer1D => device.buffer_cache.size_bytes as f64 * 0.5,
                    MemoryClass::Texture2p5D => device.texture_cache.size_bytes as f64 * 0.5,
                };
                let (traffic, requests) = if (src_bytes as f64) <= cache {
                    (unique as u64, (unique / elem as f64) as u64)
                } else {
                    let passes = operand_passes(graph, group, read, device, elem);
                    ((unique * trace.drag * passes) as u64, (unique * passes / elem as f64) as u64)
                };
                // `requests` are accesses reaching global memory — the
                // quantity the paper's hardware counter reports (Fig. 7);
                // on-chip-reuse hits are excluded.
                match read.layout.memory_class() {
                    MemoryClass::Buffer1D => {
                        dram_buffer += traffic;
                        accesses_buffer += requests;
                    }
                    MemoryClass::Texture2p5D => {
                        dram_texture += traffic;
                        accesses_texture += requests;
                    }
                }
                let mut map_cost = read.map.as_ref().map(|m| m.cost().weighted()).unwrap_or(0.0);
                if let Some(own) = own_cost.filter(|_| is_anchor_read) {
                    map_cost += own;
                }
                // Index expressions are evaluated once per *distinct*
                // element: loop-invariant sub-expressions are hoisted out
                // of the reduction loops, so repeated touches of the same
                // element reuse the computed address.
                let unique_accesses = accesses.min(graph.tensor(read.source).shape.numel() as f64);
                // Even without strength reduction a generated kernel
                // evaluates the transformation chain step-by-step, so the
                // per-element cost is bounded by the chain length, not by
                // the size of the fully substituted expression tree.
                let map_cost = map_cost.min(200.0);
                index_ops += map_cost * unique_accesses * INDEX_AMORTIZATION;
            }

            // Output write: streamed once per copy, dragged by the
            // write layout's locality in iteration order.
            let write_bytes = ((out_numel * elem) as f64 * trace.write.drag) as u64
                * (1 + group.extra_copies as u64);
            match group.output_layout.memory_class() {
                MemoryClass::Buffer1D => {
                    dram_buffer += write_bytes;
                    accesses_buffer += out_numel;
                }
                MemoryClass::Texture2p5D => {
                    dram_texture += write_bytes;
                    accesses_texture += out_numel;
                }
            }

            // --- Compute & epilogue work -----------------------------
            let macs: u64 = group.members.iter().map(|&m| graph.node_macs(m)).sum();
            let alu_ops: f64 = group
                .members
                .iter()
                .map(|&m| {
                    let n = graph.node(m);
                    let numel = graph.tensor(n.outputs[0]).shape.numel() as f64;
                    n.op.ops_per_element() * numel
                })
                .sum();

            let profile = KernelProfile {
                macs,
                alu_ops,
                dram_bytes_buffer: dram_buffer,
                dram_bytes_texture: dram_texture,
                index_ops,
                utilization: group.utilization,
            };
            let mut cost = device.kernel_cost(&profile);
            cost.launch_ns *= self.mem_model.dispatch_scale;
            let ns = cost.total_ns();
            total_ns += ns;
            match group.class {
                LatencyClass::Compute => compute_ns += ns,
                LatencyClass::ExplicitTransform => explicit_ns += ns,
                LatencyClass::ImplicitTransform => implicit_ns += ns,
            }

            let counters = MemCounters {
                buffer_accesses: accesses_buffer,
                buffer_misses: dram_buffer / line_buffer.max(1),
                texture_accesses: accesses_texture,
                texture_misses: dram_texture / tile_texture.max(1),
            };
            mem = mem.combine(counters);
            dram_bytes_total += dram_buffer + dram_texture;
            total_macs += macs;

            groups_out.push(GroupReport { index: gi, class: group.class, cost, macs, counters });
        }

        let latency_ms = total_ns / 1e6;
        let gmacs = if latency_ms > 0.0 { total_macs as f64 / (latency_ms * 1e6) } else { 0.0 };
        ModelReport {
            latency_ms,
            gmacs,
            kernel_count: self.groups.len(),
            compute_ms: compute_ns / 1e6,
            explicit_ms: explicit_ns / 1e6,
            implicit_ms: implicit_ns / 1e6,
            mem,
            dram_bytes: dram_bytes_total,
            peak_memory_bytes: self.peak_memory(device),
            groups: groups_out,
        }
    }

    /// Peak memory footprint under the framework's memory model.
    pub fn peak_memory(&self, device: &DeviceConfig) -> u64 {
        let graph = &self.graph;
        let elem = device.dtype.size_bytes();
        let weights: u64 = graph.param_count() * elem;
        let bytes_of = |t: smartmem_ir::TensorId| graph.tensor(t).shape.numel() * elem;

        let activations = if self.mem_model.pooled {
            // Liveness over the group schedule.
            let mut last_use: HashMap<u32, usize> = HashMap::new();
            for (gi, g) in self.groups.iter().enumerate() {
                for r in &g.reads {
                    last_use.insert(r.source.0, gi);
                }
            }
            for &out in graph.outputs() {
                last_use.insert(out.0, self.groups.len());
            }
            let mut live: u64 = graph.inputs().iter().map(|&t| bytes_of(t)).sum();
            let mut peak = live;
            let mut expires: HashMap<usize, u64> = HashMap::new();
            for (gi, g) in self.groups.iter().enumerate() {
                let b = bytes_of(g.output) * (1 + g.extra_copies as u64);
                live += b;
                peak = peak.max(live);
                let lu = last_use.get(&g.output.0).copied().unwrap_or(gi);
                *expires.entry(lu).or_insert(0) += b;
                if let Some(freed) = expires.remove(&gi) {
                    live = live.saturating_sub(freed);
                }
            }
            peak
        } else {
            // Every intermediate stays allocated.
            self.groups
                .iter()
                .map(|g| bytes_of(g.output) * (1 + g.extra_copies as u64))
                .sum::<u64>()
                + graph.inputs().iter().map(|&t| bytes_of(t)).sum::<u64>()
        };

        let im2col = if self.mem_model.im2col {
            self.groups
                .iter()
                .filter_map(|g| {
                    let n = graph.node(g.anchor);
                    match n.op {
                        Op::Conv2d { .. } => {
                            let w = &graph.tensor(n.inputs[1]).shape;
                            let out = &graph.tensor(n.outputs[0]).shape;
                            Some(
                                w.dim(1) as u64
                                    * w.dim(2) as u64
                                    * w.dim(3) as u64
                                    * out.dim(2) as u64
                                    * out.dim(3) as u64
                                    * elem,
                            )
                        }
                        _ => None,
                    }
                })
                .max()
                .unwrap_or(0)
        } else {
            0
        };

        weights + (activations as f64 * self.mem_model.workspace_factor) as u64 + im2col
    }
}

/// How many times an operand must be streamed from DRAM given on-chip
/// tile reuse: GEMM/conv operands whose counterpart (times its drag)
/// fits in the cache stream once; otherwise once per output-tile strip.
fn operand_passes(
    graph: &Graph,
    group: &KernelGroup,
    read: &EdgeRead,
    device: &DeviceConfig,
    elem: u64,
) -> f64 {
    let member = graph.node(read.member);
    if read.member != group.anchor {
        return 1.0;
    }
    let cache_bytes = |layout: &smartmem_ir::Layout| -> f64 {
        match layout.memory_class() {
            MemoryClass::Buffer1D => device.buffer_cache.size_bytes as f64 * 0.5,
            MemoryClass::Texture2p5D => device.texture_cache.size_bytes as f64 * 0.5,
        }
    };
    let eff_tile_m = (group.config.tile.0 * group.config.workgroup.0).max(1) as f64;
    let eff_tile_n = (group.config.tile.1 * group.config.workgroup.1).max(1) as f64;
    match &member.op {
        Op::MatMul { .. } => {
            let out = &graph.tensor(member.outputs[0]).shape;
            let rank = out.rank();
            let (m, n) = (out.dim(rank - 2) as f64, out.dim(rank - 1) as f64);
            // Does the counterpart operand fit?
            let other_idx = 1 - read.operand_idx.min(1);
            let other = &graph.tensor(member.inputs[other_idx]).shape;
            let other_fits = (other.numel() * elem) as f64 <= cache_bytes(&read.layout);
            if other_fits {
                1.0
            } else if read.operand_idx == 0 {
                (n / eff_tile_n).max(1.0)
            } else {
                (m / eff_tile_m).max(1.0)
            }
        }
        Op::Conv2d { groups: g, .. } => {
            let w = &graph.tensor(member.inputs[1]).shape;
            match read.operand_idx {
                0 => {
                    // x reused across output channels of its group.
                    let w_fits = (w.numel() * elem) as f64 <= cache_bytes(&read.layout);
                    if w_fits {
                        1.0
                    } else {
                        ((w.dim(0) / g).max(1) as f64 / 32.0).max(1.0)
                    }
                }
                1 => {
                    // weights reused across the spatial domain.
                    let out = &graph.tensor(member.outputs[0]).shape;
                    let spatial = (out.dim(2) * out.dim(3)) as f64;
                    (spatial / (eff_tile_m * eff_tile_n)).clamp(1.0, 8.0)
                }
                _ => 1.0,
            }
        }
        // Normalizations make two passes (statistics + apply).
        Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } => 2.0,
        _ => 1.0,
    }
}

/// Pull-back map of a retained transformation kernel's own operation.
fn own_pullback(graph: &Graph, group: &KernelGroup) -> Option<IndexMap> {
    let node = graph.node(group.anchor);
    if !is_eliminable(&node.op) {
        return None;
    }
    let in_dims = graph.tensor(node.inputs[0]).shape.dims().to_vec();
    let out_dims = graph.tensor(node.outputs[0]).shape.dims().to_vec();
    Some(op_pullback(&node.op, &in_dims, &out_dims, 0).simplify())
}

/// Analytic reads-per-output-point for an anchor operand.
fn per_point_reads(graph: &Graph, op: &Op, read: &EdgeRead, anchor_out: &Shape) -> f64 {
    let decl = &graph.tensor(read.logical).shape;
    match op {
        Op::Conv2d { .. } => match read.operand_idx {
            0 | 1 => {
                let member = graph.node(read.member);
                let w = &graph.tensor(member.inputs[1]).shape;
                (w.dim(1) * w.dim(2) * w.dim(3)) as f64
            }
            _ => 1.0,
        },
        Op::MatMul { trans_a, .. } => {
            let a = &graph.tensor(graph.node(read.member).inputs[0]).shape;
            let k = if *trans_a { a.dim(a.rank() - 2) } else { a.dim(a.rank() - 1) };
            k as f64
        }
        Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } => 2.0,
        Op::Reduce { axes, .. } if read.operand_idx == 0 => {
            axes.iter().map(|&a| decl.dim(a) as f64).product()
        }
        Op::Pool2d { kernel, .. } => (kernel.0 * kernel.1) as f64,
        Op::Concat { axis } => {
            let out_extent = anchor_out.dim(*axis) as f64;
            decl.dim(*axis) as f64 / out_extent
        }
        _ => 1.0,
    }
}

/// Hash signature of a group for trace memoization.
fn group_signature(graph: &Graph, group: &KernelGroup) -> u64 {
    let mut h = DefaultHasher::new();
    let anchor = graph.node(group.anchor);
    format!("{:?}", anchor.op).hash(&mut h);
    graph.tensor(anchor.outputs[0]).shape.dims().hash(&mut h);
    graph.tensor(group.output).shape.dims().hash(&mut h);
    format!("{}", group.output_layout).hash(&mut h);
    for r in &group.reads {
        graph.tensor(r.source).shape.dims().hash(&mut h);
        format!("{}", r.layout).hash(&mut h);
        r.operand_idx.hash(&mut h);
        graph.node(r.member).op.mnemonic().hash(&mut h);
        (r.member == group.anchor).hash(&mut h);
        if let Some(m) = &r.map {
            format!("{m}").hash(&mut h);
        }
    }
    h.finish()
}

/// Granule key of a physical address: cache line for buffers, 2-D tile
/// for textures (Table 2's 2.5D locality).
fn granule_key(addr: PhysicalAddress, device: &DeviceConfig, elem: u64) -> u64 {
    match addr {
        PhysicalAddress::Linear(off) => (off * elem) / device.buffer_cache.line_bytes as u64,
        PhysicalAddress::Texel { x, y, .. } => {
            let tx = x / device.texture_tiling.tile_w;
            let ty = y / device.texture_tiling.tile_h;
            (ty << 24) | tx | (1 << 62)
        }
    }
}

fn elem_key(addr: PhysicalAddress) -> u64 {
    match addr {
        PhysicalAddress::Linear(off) => off,
        PhysicalAddress::Texel { x, y, lane } => (y << 26) | (x << 2) | lane as u64 | (1 << 62),
    }
}

/// Runs the sampled trace and measures per-operand line drag.
///
/// Coordinates live in flat buffers reused across the group's operands
/// (`rank` values per coordinate, counts kept explicitly because rank-0
/// coordinates take no values); each operand's index map is evaluated
/// in one batch, and distinct elements and granules are counted by
/// sort + dedup.
fn trace_group(
    graph: &Graph,
    group: &KernelGroup,
    own_map: Option<&IndexMap>,
    device: &DeviceConfig,
    elem: u64,
) -> GroupTrace {
    let anchor = graph.node(group.anchor);
    let anchor_dims = graph.tensor(anchor.outputs[0]).shape.dims();
    let out_dims = graph.tensor(group.output).shape.dims();
    let (anchor_samples, anchor_count) = sample_subvolume(anchor_dims, MAX_OUT_SAMPLES);
    let (out_samples, out_count) = sample_subvolume(out_dims, MAX_OUT_SAMPLES);
    // The anchor's own pull-back of every anchor sample, in one batch.
    let mut own_coords = Vec::new();
    if let Some(m) = own_map {
        m.eval_batch(&anchor_samples, anchor_count, &mut own_coords);
    }

    let granule_bytes = |layout: &smartmem_ir::Layout| -> f64 {
        match layout.memory_class() {
            MemoryClass::Buffer1D => device.buffer_cache.line_bytes as f64,
            MemoryClass::Texture2p5D => {
                (device.texture_tiling.tile_w * device.texture_tiling.tile_h * 4 * elem) as f64
            }
        }
    };
    let max_drag = |layout: &smartmem_ir::Layout| -> f64 { granule_bytes(layout) / elem as f64 };

    let mut reads = Vec::with_capacity(group.reads.len());
    let (mut decl, mut mapped) = (Vec::new(), Vec::new());
    let (mut elems, mut granules) = (Vec::new(), Vec::new());
    for read in &group.reads {
        let src_shape = &graph.tensor(read.source).shape;
        let is_anchor_read = read.member == group.anchor;
        let (samples, count, rank) = if is_anchor_read {
            (&anchor_samples, anchor_count, anchor_dims.len())
        } else {
            (&out_samples, out_count, out_dims.len())
        };
        let decl_dims = graph.tensor(read.logical).shape.dims();
        decl.clear();
        let mut n = 0;
        for i in 0..count {
            let coord = &samples[i * rank..(i + 1) * rank];
            n += if is_anchor_read {
                let own = own_map.map(|m| &own_coords[i * m.in_rank()..(i + 1) * m.in_rank()]);
                anchor_read_coords(graph, &anchor.op, read, coord, decl_dims, own, &mut decl)
            } else {
                clamp_broadcast(coord, decl_dims, &mut decl);
                1
            };
        }
        assert_eq!(decl.len(), n * decl_dims.len(), "coordinate rank mismatch");
        let (src, src_rank) = match &read.map {
            None => (&decl, decl_dims.len()),
            Some(m) => {
                mapped.clear();
                m.eval_batch(&decl, n, &mut mapped);
                (&mapped, m.in_rank())
            }
        };
        elems.clear();
        granules.clear();
        for i in 0..n {
            let addr = read.layout.address(src_shape, &src[i * src_rank..(i + 1) * src_rank]);
            elems.push(elem_key(addr));
            granules.push(granule_key(addr, device, elem));
        }
        let useful = (distinct(&mut elems) as f64 * elem as f64).max(1.0);
        let dragged = distinct(&mut granules) as f64 * granule_bytes(&read.layout);
        let drag = (dragged / useful).clamp(1.0, max_drag(&read.layout));
        reads.push(EdgeTrace { drag });
    }

    // Writes are coalesced by construction: the kernel's thread order
    // follows the output layout and GPU write-combining absorbs the
    // residual scatter (this is also why the paper finds sub-optimal
    // *writes* cheaper than sub-optimal *reads*, SS3.2.2).
    let write = EdgeTrace { drag: 1.0 };
    GroupTrace { reads, write }
}

/// Number of distinct keys (sorts and dedups `keys` in place).
fn distinct(keys: &mut Vec<u64>) -> usize {
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Contiguous sub-volume of `dims` with at most `budget` points,
/// allocated innermost-first. Returns the points flat (`dims.len()`
/// values each) and their count.
fn sample_subvolume(dims: &[usize], budget: usize) -> (Vec<usize>, usize) {
    let mut window = vec![1usize; dims.len()];
    let mut remaining = budget.max(1);
    for i in (0..dims.len()).rev() {
        let take = dims[i].min(remaining);
        window[i] = take.max(1);
        remaining = (remaining / window[i]).max(1);
    }
    let total: usize = window.iter().product();
    let mut coords = Vec::with_capacity(total * dims.len());
    let mut c = vec![0usize; dims.len()];
    for _ in 0..total {
        coords.extend_from_slice(&c);
        for d in (0..dims.len()).rev() {
            c[d] += 1;
            if c[d] < window[d] {
                break;
            }
            c[d] = 0;
        }
    }
    (coords, total)
}

/// Right-aligned broadcast clamp of an iteration coordinate onto a
/// (possibly lower-rank / size-1) operand shape, appended to `out`.
fn clamp_broadcast(coord: &[usize], decl_dims: &[usize], out: &mut Vec<usize>) {
    let shift = decl_dims.len() as isize - coord.len() as isize;
    out.extend(decl_dims.iter().enumerate().map(|(j, &d)| {
        let ci = j as isize - shift;
        let c = if ci >= 0 { coord.get(ci as usize).copied().unwrap_or(0) } else { 0 };
        c.min(d.saturating_sub(1))
    }));
}

/// SplitMix64 for pseudo-random gather rows.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Appends the declared-space coordinates read by the anchor for one
/// output point (inner loops sampled up to [`MAX_INNER`]) to `out`,
/// `decl_dims.len()` values each, and returns how many it appended.
/// `own_coord` is the anchor's own pull-back of `out_coord`, for a
/// retained transformation kernel.
fn anchor_read_coords(
    graph: &Graph,
    op: &Op,
    read: &EdgeRead,
    out_coord: &[usize],
    decl_dims: &[usize],
    own_coord: Option<&[usize]>,
    out: &mut Vec<usize>,
) -> usize {
    match op {
        Op::Conv2d { stride, padding, groups } => {
            let member = graph.node(read.member);
            let w = &graph.tensor(member.inputs[1]).shape;
            let (cpg, kh, kw) = (w.dim(1), w.dim(2), w.dim(3));
            let (n, oc, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
            let o_per_g = w.dim(0) / groups;
            let g_idx = oc / o_per_g.max(1);
            let (mut emitted, mut pushed) = (0usize, 0usize);
            'outer: for ic in 0..cpg {
                for dh in 0..kh {
                    for dw in 0..kw {
                        if emitted >= MAX_INNER {
                            break 'outer;
                        }
                        emitted += 1;
                        match read.operand_idx {
                            0 => {
                                let ih = (oh * stride.0 + dh) as isize - padding.0 as isize;
                                let iw = (ow * stride.1 + dw) as isize - padding.1 as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih as usize >= decl_dims[2]
                                    || iw as usize >= decl_dims[3]
                                {
                                    continue;
                                }
                                out.extend_from_slice(&[
                                    n,
                                    g_idx * cpg + ic,
                                    ih as usize,
                                    iw as usize,
                                ]);
                            }
                            1 => out.extend_from_slice(&[oc, ic, dh, dw]),
                            _ => {
                                out.push(oc.min(decl_dims[0].saturating_sub(1)));
                                pushed += 1;
                                break 'outer;
                            }
                        }
                        pushed += 1;
                    }
                }
            }
            pushed
        }
        Op::MatMul { trans_a, trans_b } => {
            let rank = decl_dims.len();
            let k_extent = match read.operand_idx {
                0 => {
                    if *trans_a {
                        decl_dims[rank - 2]
                    } else {
                        decl_dims[rank - 1]
                    }
                }
                _ => {
                    if *trans_b {
                        decl_dims[rank - 1]
                    } else {
                        decl_dims[rank - 2]
                    }
                }
            };
            let or = out_coord.len();
            let (m, n) = (out_coord[or - 2], out_coord[or - 1]);
            let steps = k_extent.min(MAX_INNER);
            // Every step shares the first step's broadcast batch prefix.
            let base = out.len();
            for k in 0..steps {
                if k == 0 {
                    clamp_broadcast(&out_coord[..or - 2], &decl_dims[..rank - 2], out);
                } else {
                    out.extend_from_within(base..base + rank - 2);
                }
                match read.operand_idx {
                    0 => {
                        if *trans_a {
                            out.extend_from_slice(&[k, m.min(decl_dims[rank - 1] - 1)]);
                        } else {
                            out.extend_from_slice(&[m.min(decl_dims[rank - 2] - 1), k]);
                        }
                    }
                    _ => {
                        if *trans_b {
                            out.extend_from_slice(&[n.min(decl_dims[rank - 2] - 1), k]);
                        } else {
                            out.extend_from_slice(&[k, n.min(decl_dims[rank - 1] - 1)]);
                        }
                    }
                }
            }
            steps
        }
        Op::LayerNorm { axes } | Op::Reduce { axes, .. } => {
            reduction_space_coords(out_coord, decl_dims, axes, out)
        }
        Op::InstanceNorm => reduction_space_coords(out_coord, decl_dims, &[2, 3], out),
        Op::Softmax { axis } => reduction_space_coords(out_coord, decl_dims, &[*axis], out),
        Op::Pool2d { kernel, stride, padding, .. } => {
            let (n, c0, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
            let mut emitted = 0;
            for dh in 0..kernel.0 {
                for dw in 0..kernel.1 {
                    if emitted >= MAX_INNER {
                        return emitted;
                    }
                    let ih = (oh * stride.0 + dh) as isize - padding.0 as isize;
                    let iw = (ow * stride.1 + dw) as isize - padding.1 as isize;
                    if ih < 0
                        || iw < 0
                        || ih as usize >= decl_dims[2]
                        || iw as usize >= decl_dims[3]
                    {
                        continue;
                    }
                    out.extend_from_slice(&[n, c0, ih as usize, iw as usize]);
                    emitted += 1;
                }
            }
            emitted
        }
        Op::Gather { axis } => {
            let base = out.len();
            clamp_broadcast(out_coord, decl_dims, out);
            if read.operand_idx == 0 {
                let lin: u64 = out_coord.iter().fold(0u64, |acc, &c| acc * 31 + c as u64);
                out[base + *axis] = (splitmix(lin) % decl_dims[*axis].max(1) as u64) as usize;
            }
            1
        }
        Op::Concat { axis } => {
            let member = graph.node(read.member);
            let mut offset = 0usize;
            for (i, &input) in member.inputs.iter().enumerate() {
                let extent = graph.tensor(input).shape.dim(*axis);
                if i == read.operand_idx {
                    let pos = out_coord[*axis];
                    if pos < offset || pos >= offset + extent {
                        return 0;
                    }
                    // The output point shifted into this input along
                    // `axis`, then broadcast-clamped.
                    let base = out.len();
                    clamp_broadcast(out_coord, decl_dims, out);
                    let j = *axis as isize + decl_dims.len() as isize - out_coord.len() as isize;
                    if let Some(&d) = usize::try_from(j).ok().and_then(|j| decl_dims.get(j)) {
                        out[base + j as usize] = (pos - offset).min(d.saturating_sub(1));
                    }
                    return 1;
                }
                offset += extent;
            }
            0
        }
        _ => {
            match own_coord {
                Some(c) => out.extend_from_slice(c),
                None => clamp_broadcast(out_coord, decl_dims, out),
            }
            1
        }
    }
}

/// Appends the coordinates covering the reduction space of
/// normalization/reduction operators to `out` and returns how many:
/// non-reduced dims come from the output coordinate, reduced dims
/// iterate (sampled).
fn reduction_space_coords(
    out_coord: &[usize],
    decl_dims: &[usize],
    axes: &[usize],
    out: &mut Vec<usize>,
) -> usize {
    let rank = decl_dims.len();
    // The first row starts as the template; every step overwrites all
    // reduced dims, so later rows copy it.
    let base = out.len();
    if out_coord.len() == rank {
        out.extend(out_coord.iter().zip(decl_dims).map(|(&c, &d)| c.min(d - 1)));
    } else {
        let mut oi = 0;
        for (j, &d) in decl_dims.iter().enumerate() {
            if axes.contains(&j) {
                out.push(0);
                continue;
            }
            out.push(out_coord.get(oi).copied().unwrap_or(0).min(d - 1));
            oi += 1;
        }
    }
    let red_total: usize = axes.iter().map(|&a| decl_dims[a]).product();
    let steps = red_total.min(MAX_INNER);
    for step in 0..steps {
        let row = if step == 0 {
            base
        } else {
            out.extend_from_within(base..base + rank);
            out.len() - rank
        };
        let mut rem = step;
        for &a in axes.iter().rev() {
            out[row + a] = rem % decl_dims[a];
            rem /= decl_dims[a];
        }
    }
    if steps == 0 {
        out.truncate(base);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Framework, SmartMemConfig, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder, PoolKind, ReduceKind, UnaryKind};

    fn small_model() -> Graph {
        let mut b = GraphBuilder::new("small");
        let x = b.input("x", &[1, 32, 64], DType::F16);
        let w = b.weight("w", &[64, 64], DType::F16);
        let mm = b.matmul(x, w);
        let r = b.reshape(mm, &[1, 8, 4, 64]);
        let t = b.transpose(r, &[0, 2, 1, 3]);
        let g = b.unary(t, UnaryKind::Gelu);
        b.output(g);
        b.finish()
    }

    #[test]
    fn estimate_produces_positive_latency() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let r = opt.estimate(&device);
        assert!(r.latency_ms > 0.0);
        assert!(r.gmacs > 0.0);
        assert_eq!(r.kernel_count, opt.groups.len());
        assert!(r.peak_memory_bytes > 0);
    }

    #[test]
    fn smartmem_beats_unoptimized_levels() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap().estimate(&device);
        let base = SmartMemPipeline::with_config(SmartMemConfig::dnnfusion_level())
            .optimize(&g, &device)
            .unwrap()
            .estimate(&device);
        assert!(
            full.latency_ms < base.latency_ms,
            "full {} vs base {}",
            full.latency_ms,
            base.latency_ms
        );
    }

    #[test]
    fn transform_kernels_attributed_when_retained() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let base = SmartMemPipeline::with_config(SmartMemConfig::dnnfusion_level())
            .optimize(&g, &device)
            .unwrap()
            .estimate(&device);
        assert!(base.explicit_ms > 0.0, "retained reshape/transpose kernels must show up");
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap().estimate(&device);
        assert_eq!(full.explicit_ms, 0.0, "SmartMem eliminates the transforms");
    }

    #[test]
    fn dram_traffic_near_footprint_for_elementwise() {
        // A pure element-wise kernel on contiguous data should move
        // roughly in+out bytes, not orders of magnitude more.
        let mut b = GraphBuilder::new("ew");
        let x = b.input("x", &[1024, 1024], DType::F16);
        let y = b.unary(x, UnaryKind::Gelu);
        b.output(y);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let r = opt.estimate(&device);
        let footprint = 2.0 * 1024.0 * 1024.0 * 2.0;
        assert!(
            (r.dram_bytes as f64) < 3.0 * footprint,
            "dram {} vs footprint {}",
            r.dram_bytes,
            footprint
        );
        assert!((r.dram_bytes as f64) >= footprint * 0.8);
    }

    #[test]
    fn sample_subvolume_bounds() {
        let (s, n) = sample_subvolume(&[1000, 1000], 256);
        assert!(n <= 256);
        assert!(n > 0);
        assert_eq!(s.len(), 2 * n);
        let (s, n) = sample_subvolume(&[2, 2], 256);
        assert_eq!(n, 4);
        assert_eq!(s, vec![0, 0, 0, 1, 1, 0, 1, 1]);
        // A rank-0 space has one point, stored in zero values.
        let (s, n) = sample_subvolume(&[], 16);
        assert_eq!(n, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn clamp_broadcast_right_aligns() {
        let clamp = |coord: &[usize], dims: &[usize]| {
            let mut out = vec![9];
            clamp_broadcast(coord, dims, &mut out);
            out
        };
        assert_eq!(clamp(&[3, 5, 7], &[8, 8]), vec![9, 5, 7]);
        assert_eq!(clamp(&[3, 5, 7], &[1, 8]), vec![9, 0, 7]);
        assert_eq!(clamp(&[2], &[4, 4]), vec![9, 0, 2]);
        assert_eq!(clamp(&[2], &[]), vec![9]);
    }

    #[test]
    fn peak_memory_pooled_below_unpooled() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        opt.mem_model.pooled = true;
        let pooled = opt.peak_memory(&device);
        opt.mem_model.pooled = false;
        let unpooled = opt.peak_memory(&device);
        assert!(pooled <= unpooled);
    }

    #[test]
    fn reduction_space_coords_cover_axes() {
        let mut out = Vec::new();
        let n = reduction_space_coords(&[2, 3], &[4, 8, 6], &[1], &mut out);
        assert!(n <= MAX_INNER);
        assert_eq!(out.len(), 3 * n);
        for c in out.chunks_exact(3) {
            assert_eq!(c[0], 2);
            assert_eq!(c[2], 3);
        }
        let axis_vals: std::collections::HashSet<usize> =
            out.chunks_exact(3).map(|c| c[1]).collect();
        assert!(axis_vals.len() > 1);
    }

    /// Asserts that every operand's drag from the flat trace is bit-equal
    /// to the reference trace's, on every group `estimate` would trace
    /// (one per distinct signature, as its memo does). Returns the
    /// number of operands compared.
    fn assert_trace_matches_reference(
        opt: &OptimizedGraph,
        device: &DeviceConfig,
        what: &str,
    ) -> usize {
        let elem = device.dtype.size_bytes();
        let mut traced = std::collections::HashSet::new();
        let mut operands = 0;
        for (gi, group) in opt.groups.iter().enumerate() {
            if !traced.insert(group_signature(&opt.graph, group)) {
                continue;
            }
            let own = own_pullback(&opt.graph, group);
            let flat = trace_group(&opt.graph, group, own.as_ref(), device, elem);
            let reference = reference::trace_group(&opt.graph, group, device, elem);
            assert_eq!(flat.reads.len(), reference.reads.len(), "{what}: group {gi}");
            for (ri, (a, b)) in flat.reads.iter().zip(&reference.reads).enumerate() {
                assert_eq!(
                    a.drag.to_bits(),
                    b.drag.to_bits(),
                    "{what}: group {gi} read {ri}: drag {} vs reference {}",
                    a.drag,
                    b.drag
                );
            }
            assert_eq!(flat.write.drag.to_bits(), reference.write.drag.to_bits());
            operands += flat.reads.len();
        }
        operands
    }

    fn ablation_configs() -> [(&'static str, SmartMemConfig); 4] {
        [
            ("dnnfusion_level", SmartMemConfig::dnnfusion_level()),
            ("lte_level", SmartMemConfig::lte_level()),
            ("layout_level", SmartMemConfig::layout_level()),
            ("default", SmartMemConfig::default()),
        ]
    }

    #[test]
    fn flat_trace_matches_reference_on_random_graphs() {
        let mut operands = 0;
        for seed in 0..100u64 {
            let g = smartmem_ir::generate::random_graph(seed);
            operands += assert_matches_on_every_device(&g, &format!("seed {seed}"));
        }
        assert!(operands > 10_000, "only {operands} operands compared");
    }

    /// Every device profile, under every ablation config that compiles
    /// `g`; returns the number of operands compared.
    fn assert_matches_on_every_device(g: &Graph, what: &str) -> usize {
        let devices = [
            DeviceConfig::snapdragon_8gen2(),
            DeviceConfig::snapdragon_835(),
            DeviceConfig::dimensity_700(),
            DeviceConfig::mali_g710(),
            DeviceConfig::apple_m1(),
            DeviceConfig::server_npu(),
            DeviceConfig::tesla_v100(),
        ];
        let mut operands = 0;
        for (name, config) in ablation_configs() {
            let pipeline = SmartMemPipeline::with_config(config);
            for device in &devices {
                if let Ok(opt) = pipeline.optimize(g, device) {
                    let what = format!("{what}, {name}, {}", device.name);
                    operands += assert_trace_matches_reference(&opt, device, &what);
                }
            }
        }
        operands
    }

    #[test]
    fn flat_trace_matches_reference_on_operators_the_zoo_samples_thinly() {
        // Grouped strided padded conv, padded pool, instance norm, a
        // concat along the innermost axis (the sampled window reaches
        // the second input), a keep-rank and a rank-dropping reduce,
        // a gather and a transposed matmul.
        let mut b = GraphBuilder::new("coverage");
        let x = b.input("x", &[1, 8, 12, 12], DType::F16);
        let w = b.weight("w", &[16, 4, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (2, 2), (1, 1), 2);
        let p = b.pool2d(c, PoolKind::Max, (3, 3), (1, 1), (1, 1));
        let n = b.instance_norm(p);
        let cat = b.concat(&[n, c], 3);
        let r = b.reshape(cat, &[1, 16, 72]);
        let t = b.transpose(r, &[0, 2, 1]);
        let keep = b.reduce(t, ReduceKind::Mean, vec![2], true);
        let scaled = b.mul(t, keep);
        let drop = b.reduce(scaled, ReduceKind::Sum, vec![1], false);
        let table = b.weight("table", &[64, 16], DType::F16);
        let ids = b.input("ids", &[24], DType::I32);
        let rows = b.gather(table, ids, 0);
        let proj = b.weight("proj", &[16, 16], DType::F16);
        let mm = b.matmul_t(rows, proj, false, true);
        b.output(drop);
        b.output(mm);
        let g = b.finish();
        assert!(assert_matches_on_every_device(&g, "coverage") > 0);
    }

    #[test]
    fn flat_trace_matches_reference_on_swin_and_resnext() {
        for model in ["Swin", "ResNext"] {
            let g = smartmem_models::by_name(model).expect("model in the zoo").graph();
            for device in [DeviceConfig::snapdragon_8gen2(), DeviceConfig::apple_m1()] {
                for (name, config) in ablation_configs() {
                    let opt = SmartMemPipeline::with_config(config).optimize(&g, &device).unwrap();
                    let what = format!("{model}, {name}, {}", device.name);
                    assert!(assert_trace_matches_reference(&opt, &device, &what) > 0);
                }
            }
        }
    }

    /// The trace as it was before the flat buffers: one `Vec` per
    /// coordinate, a per-coordinate `IndexMap::eval`, and `HashSet`
    /// counting. Kept as the oracle of the equivalence tests above.
    mod reference {
        use super::super::*;
        use std::collections::HashSet;

        pub(super) fn trace_group(
            graph: &Graph,
            group: &KernelGroup,
            device: &DeviceConfig,
            elem: u64,
        ) -> GroupTrace {
            let anchor = graph.node(group.anchor);
            let anchor_out = graph.tensor(anchor.outputs[0]).shape.clone();
            let out_shape = graph.tensor(group.output).shape.clone();
            let own_map = own_pullback(graph, group);

            let anchor_samples = sample_subvolume(anchor_out.dims(), MAX_OUT_SAMPLES);
            let out_samples = sample_subvolume(out_shape.dims(), MAX_OUT_SAMPLES);

            let granule_bytes = |layout: &smartmem_ir::Layout| -> f64 {
                match layout.memory_class() {
                    MemoryClass::Buffer1D => device.buffer_cache.line_bytes as f64,
                    MemoryClass::Texture2p5D => {
                        (device.texture_tiling.tile_w * device.texture_tiling.tile_h * 4 * elem)
                            as f64
                    }
                }
            };
            let max_drag =
                |layout: &smartmem_ir::Layout| -> f64 { granule_bytes(layout) / elem as f64 };

            let mut reads = Vec::with_capacity(group.reads.len());
            let mut scratch = Vec::new();
            for read in &group.reads {
                let src_shape = graph.tensor(read.source).shape.clone();
                let is_anchor_read = read.member == group.anchor;
                let samples = if is_anchor_read { &anchor_samples } else { &out_samples };
                let decl_dims = graph.tensor(read.logical).shape.dims().to_vec();
                let mut elems: HashSet<u64> = HashSet::new();
                let mut granules: HashSet<u64> = HashSet::new();
                for coord in samples {
                    scratch.clear();
                    if is_anchor_read {
                        anchor_read_coords(
                            graph,
                            &anchor.op,
                            read,
                            coord,
                            &decl_dims,
                            own_map.as_ref(),
                            &mut scratch,
                        );
                    } else {
                        scratch.push(clamp_broadcast(coord, &decl_dims));
                    }
                    for decl_coord in &scratch {
                        let src_coord = match &read.map {
                            None => decl_coord.clone(),
                            Some(m) => m.eval(decl_coord),
                        };
                        let addr = read.layout.address(&src_shape, &src_coord);
                        elems.insert(elem_key(addr));
                        granules.insert(granule_key(addr, device, elem));
                    }
                }
                let useful = (elems.len() as f64 * elem as f64).max(1.0);
                let dragged = granules.len() as f64 * granule_bytes(&read.layout);
                let drag = (dragged / useful).clamp(1.0, max_drag(&read.layout));
                reads.push(EdgeTrace { drag });
            }
            GroupTrace { reads, write: EdgeTrace { drag: 1.0 } }
        }

        fn sample_subvolume(dims: &[usize], budget: usize) -> Vec<Vec<usize>> {
            let mut window = vec![1usize; dims.len()];
            let mut remaining = budget.max(1);
            for i in (0..dims.len()).rev() {
                let take = dims[i].min(remaining);
                window[i] = take.max(1);
                remaining = (remaining / window[i]).max(1);
            }
            let total: usize = window.iter().product();
            let mut coords = Vec::with_capacity(total);
            let mut c = vec![0usize; dims.len()];
            for _ in 0..total {
                coords.push(c.clone());
                for d in (0..dims.len()).rev() {
                    c[d] += 1;
                    if c[d] < window[d] {
                        break;
                    }
                    c[d] = 0;
                }
            }
            coords
        }

        fn clamp_broadcast(coord: &[usize], decl_dims: &[usize]) -> Vec<usize> {
            let shift = decl_dims.len() as isize - coord.len() as isize;
            decl_dims
                .iter()
                .enumerate()
                .map(|(j, &d)| {
                    let ci = j as isize - shift;
                    let c = if ci >= 0 { coord.get(ci as usize).copied().unwrap_or(0) } else { 0 };
                    c.min(d.saturating_sub(1))
                })
                .collect()
        }

        fn anchor_read_coords(
            graph: &Graph,
            op: &Op,
            read: &EdgeRead,
            out_coord: &[usize],
            decl_dims: &[usize],
            own_map: Option<&IndexMap>,
            out: &mut Vec<Vec<usize>>,
        ) {
            match op {
                Op::Conv2d { stride, padding, groups } => {
                    let member = graph.node(read.member);
                    let w = graph.tensor(member.inputs[1]).shape.clone();
                    let (cpg, kh, kw) = (w.dim(1), w.dim(2), w.dim(3));
                    let (n, oc, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
                    let o_per_g = w.dim(0) / groups;
                    let g_idx = oc / o_per_g.max(1);
                    let mut emitted = 0usize;
                    'outer: for ic in 0..cpg {
                        for dh in 0..kh {
                            for dw in 0..kw {
                                if emitted >= MAX_INNER {
                                    break 'outer;
                                }
                                emitted += 1;
                                match read.operand_idx {
                                    0 => {
                                        let ih = (oh * stride.0 + dh) as isize - padding.0 as isize;
                                        let iw = (ow * stride.1 + dw) as isize - padding.1 as isize;
                                        if ih < 0
                                            || iw < 0
                                            || ih as usize >= decl_dims[2]
                                            || iw as usize >= decl_dims[3]
                                        {
                                            continue;
                                        }
                                        out.push(vec![
                                            n,
                                            g_idx * cpg + ic,
                                            ih as usize,
                                            iw as usize,
                                        ]);
                                    }
                                    1 => out.push(vec![oc, ic, dh, dw]),
                                    _ => {
                                        out.push(vec![oc.min(decl_dims[0].saturating_sub(1))]);
                                        break 'outer;
                                    }
                                }
                            }
                        }
                    }
                }
                Op::MatMul { trans_a, trans_b } => {
                    let rank = decl_dims.len();
                    let k_extent = match read.operand_idx {
                        0 => {
                            if *trans_a {
                                decl_dims[rank - 2]
                            } else {
                                decl_dims[rank - 1]
                            }
                        }
                        _ => {
                            if *trans_b {
                                decl_dims[rank - 1]
                            } else {
                                decl_dims[rank - 2]
                            }
                        }
                    };
                    let or = out_coord.len();
                    let (m, n) = (out_coord[or - 2], out_coord[or - 1]);
                    let batch = clamp_broadcast(&out_coord[..or - 2], &decl_dims[..rank - 2]);
                    for k in 0..k_extent.min(MAX_INNER) {
                        let mut c = batch.clone();
                        match read.operand_idx {
                            0 => {
                                if *trans_a {
                                    c.push(k);
                                    c.push(m.min(decl_dims[rank - 1] - 1));
                                } else {
                                    c.push(m.min(decl_dims[rank - 2] - 1));
                                    c.push(k);
                                }
                            }
                            _ => {
                                if *trans_b {
                                    c.push(n.min(decl_dims[rank - 2] - 1));
                                    c.push(k);
                                } else {
                                    c.push(k);
                                    c.push(n.min(decl_dims[rank - 1] - 1));
                                }
                            }
                        }
                        out.push(c);
                    }
                }
                Op::LayerNorm { axes } | Op::Reduce { axes, .. } => {
                    reduction_space_coords(out_coord, decl_dims, axes, out);
                }
                Op::InstanceNorm => {
                    reduction_space_coords(out_coord, decl_dims, &[2, 3], out);
                }
                Op::Softmax { axis } => {
                    reduction_space_coords(out_coord, decl_dims, &[*axis], out);
                }
                Op::Pool2d { kernel, stride, padding, .. } => {
                    let (n, c0, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
                    let mut emitted = 0;
                    for dh in 0..kernel.0 {
                        for dw in 0..kernel.1 {
                            if emitted >= MAX_INNER {
                                return;
                            }
                            let ih = (oh * stride.0 + dh) as isize - padding.0 as isize;
                            let iw = (ow * stride.1 + dw) as isize - padding.1 as isize;
                            if ih < 0
                                || iw < 0
                                || ih as usize >= decl_dims[2]
                                || iw as usize >= decl_dims[3]
                            {
                                continue;
                            }
                            out.push(vec![n, c0, ih as usize, iw as usize]);
                            emitted += 1;
                        }
                    }
                }
                Op::Gather { axis } => {
                    if read.operand_idx == 0 {
                        let lin: u64 = out_coord.iter().fold(0u64, |acc, &c| acc * 31 + c as u64);
                        let row = (splitmix(lin) % decl_dims[*axis].max(1) as u64) as usize;
                        let mut c = clamp_broadcast(out_coord, decl_dims);
                        c[*axis] = row;
                        out.push(c);
                    } else {
                        out.push(clamp_broadcast(out_coord, decl_dims));
                    }
                }
                Op::Concat { axis } => {
                    let member = graph.node(read.member);
                    let mut offset = 0usize;
                    for (i, &input) in member.inputs.iter().enumerate() {
                        let extent = graph.tensor(input).shape.dim(*axis);
                        if i == read.operand_idx {
                            let pos = out_coord[*axis];
                            if pos >= offset && pos < offset + extent {
                                let mut c = out_coord.to_vec();
                                c[*axis] = pos - offset;
                                out.push(clamp_broadcast(&c, decl_dims));
                            }
                            return;
                        }
                        offset += extent;
                    }
                }
                _ => {
                    let decl = match own_map {
                        Some(m) => m.eval(out_coord),
                        None => clamp_broadcast(out_coord, decl_dims),
                    };
                    out.push(decl);
                }
            }
        }

        fn reduction_space_coords(
            out_coord: &[usize],
            decl_dims: &[usize],
            axes: &[usize],
            out: &mut Vec<Vec<usize>>,
        ) {
            let keeps_rank = out_coord.len() == decl_dims.len();
            let mut template = vec![0usize; decl_dims.len()];
            if keeps_rank {
                for (j, t) in template.iter_mut().enumerate() {
                    *t = out_coord[j].min(decl_dims[j] - 1);
                }
            } else {
                let mut oi = 0;
                for (j, t) in template.iter_mut().enumerate() {
                    if axes.contains(&j) {
                        continue;
                    }
                    *t = out_coord.get(oi).copied().unwrap_or(0).min(decl_dims[j] - 1);
                    oi += 1;
                }
            }
            let red_total: usize = axes.iter().map(|&a| decl_dims[a]).product();
            for step in 0..red_total.min(MAX_INNER) {
                let mut c = template.clone();
                let mut rem = step;
                for &a in axes.iter().rev() {
                    c[a] = rem % decl_dims[a];
                    rem /= decl_dims[a];
                }
                out.push(c);
            }
        }
    }
}
