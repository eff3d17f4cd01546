//! Compiled execution plans for the processing array.
//!
//! The genotype is a *description* of a circuit; evaluating it through
//! [`Genotype`] accessors means re-decoding PE genes and re-resolving fault
//! overlays for every pixel of every image — exactly the per-pixel interpreter
//! overhead the evaluation engine removes.  [`CompiledArray`] bakes one
//! genotype plus one fault overlay into a flat structure-of-arrays plan:
//!
//! * per-PE function opcodes, already decoded from the 4-bit genes,
//! * pre-clamped input-mux selectors (out-of-range selectors resolve to the
//!   window centre at compile time, mirroring the hardware's safe decode),
//! * a dense `[Option<FaultBehaviour>; 16]` overlay replacing the per-pixel
//!   `BTreeMap` lookups of the interpreter,
//! * the resolved output row.
//!
//! Compilation costs a few dozen nanoseconds and happens once per candidate;
//! the inner loop then touches only flat arrays.  Bulk evaluation runs in
//! blocks of [`CompiledArray::BLOCK`] windows: every PE's opcode is applied
//! across the block's lanes, and a faulty PE's behaviour is applied right
//! after it, lane-wise, so clean and faulty plans share one vectorised path.
//! [`CompiledArray::evaluate_window`] is the scalar path for single windows.
//!
//! The original per-pixel interpreter lives in `ehw_bench::oracle` as the
//! correctness oracle of the equivalence suite and the baseline the
//! evaluation benches measure the plan against; `CompiledArray` is
//! bit-identical to it by construction and by test.

use ehw_image::image::GrayImage;
use ehw_image::window::{Window3x3, WindowPlanes};

use crate::genotype::{GeneDiff, Genotype, ARRAY_COLS, ARRAY_ROWS, INPUT_GENES, PE_GENES};
use crate::pe::{FaultBehaviour, PeFunction};

/// A genotype + fault overlay compiled into a flat execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledArray {
    /// Decoded PE functions in row-major order.
    fns: [PeFunction; PE_GENES],
    /// Fault overlay in row-major order (`None` = healthy PE).
    faults: [Option<FaultBehaviour>; PE_GENES],
    /// Pre-clamped window selectors for the four north inputs.
    north: [usize; ARRAY_COLS],
    /// Pre-clamped window selectors for the four west inputs.
    west: [usize; ARRAY_ROWS],
    /// Resolved output row (`output_gene % ARRAY_ROWS`).
    out_row: usize,
}

impl CompiledArray {
    /// Compiles a genotype with no fault overlay.
    pub fn new(genotype: &Genotype) -> Self {
        Self::with_faults(genotype, std::iter::empty())
    }

    /// Compiles a genotype with the given fault overlay.  Positions outside
    /// the 4×4 array are ignored (they can never influence the output).
    pub fn with_faults(
        genotype: &Genotype,
        overlay: impl IntoIterator<Item = ((usize, usize), FaultBehaviour)>,
    ) -> Self {
        let mut fns = [PeFunction::IdentityW; PE_GENES];
        for (i, f) in fns.iter_mut().enumerate() {
            *f = PeFunction::from_gene(genotype.pe_genes[i]);
        }
        let mut faults = [None; PE_GENES];
        for ((row, col), behaviour) in overlay {
            if row < ARRAY_ROWS && col < ARRAY_COLS {
                faults[row * ARRAY_COLS + col] = Some(behaviour);
            }
        }
        let mut north = [0usize; ARRAY_COLS];
        for (c, n) in north.iter_mut().enumerate() {
            *n = Self::clamp_selector(genotype.north_selector(c));
        }
        let mut west = [0usize; ARRAY_ROWS];
        for (r, w) in west.iter_mut().enumerate() {
            *w = Self::clamp_selector(genotype.west_selector(r));
        }
        Self {
            fns,
            faults,
            north,
            west,
            out_row: (genotype.output_gene as usize) % ARRAY_ROWS,
        }
    }

    /// Selector values above 8 decode to the window centre, exactly like
    /// `ehw_bench::oracle::select`; resolving that at compile/patch time
    /// removes the per-pixel branch.
    #[inline]
    fn clamp_selector(sel: u8) -> usize {
        if (sel as usize) < 9 {
            sel as usize
        } else {
            Window3x3::CENTER
        }
    }

    /// Re-derives a child's plan from its parent's by rewriting only the
    /// entries of the genes in `diff` — the software mirror of the paper's
    /// partial reconfiguration, where only changed PE genes are shipped to
    /// the fabric.  Bit-identical to compiling the child genotype from
    /// scratch under the same fault overlay (the overlay is carried over
    /// untouched; see [`patch_fault`](Self::patch_fault) for overlay edits).
    pub fn patch(&self, diff: &GeneDiff) -> CompiledArray {
        let mut plan = *self;
        plan.apply(diff);
        plan
    }

    /// In-place [`patch`](Self::patch): rewrites only the entries of the
    /// genes in `diff`, ≤ k writes with no struct copy.  Pair with
    /// [`revert`](Self::revert) to keep one worker-resident plan that is
    /// patched to each candidate and restored afterwards — the cheapest
    /// possible reconfiguration round trip.
    pub fn apply(&mut self, diff: &GeneDiff) {
        for &(gene, value, _) in diff.entries() {
            self.apply_gene(gene as usize, value);
        }
    }

    /// Undoes an [`apply`](Self::apply) of `diff` by replaying the same gene
    /// positions with the parent values carried in the diff — the return
    /// trip that restores a worker-resident plan to the parent's plan after
    /// a candidate was evaluated.  No genotype lookups: the diff is
    /// self-contained in both directions.
    pub fn revert(&mut self, diff: &GeneDiff) {
        for &(gene, _, old) in diff.entries() {
            self.apply_gene(gene as usize, old);
        }
    }

    /// Rewrites one flat-ordered gene's compiled entry.
    #[inline]
    fn apply_gene(&mut self, gene: usize, value: u8) {
        if gene < PE_GENES {
            self.fns[gene] = PeFunction::from_gene(value);
        } else if gene < PE_GENES + INPUT_GENES {
            let input = gene - PE_GENES;
            if input < ARRAY_COLS {
                self.north[input] = Self::clamp_selector(value);
            } else {
                self.west[input - ARRAY_COLS] = Self::clamp_selector(value);
            }
        } else {
            self.out_row = (value as usize) % ARRAY_ROWS;
        }
    }

    /// Rewrites one fault-overlay entry (`None` clears the position) without
    /// recompiling the genotype-derived entries.  Positions outside the 4×4
    /// array are ignored, exactly like [`with_faults`](Self::with_faults).
    pub fn patch_fault(
        &self,
        row: usize,
        col: usize,
        behaviour: Option<FaultBehaviour>,
    ) -> CompiledArray {
        let mut plan = *self;
        if row < ARRAY_ROWS && col < ARRAY_COLS {
            plan.faults[row * ARRAY_COLS + col] = behaviour;
        }
        plan
    }

    /// The plan's *active circuit* packed into one `u128`: two plans on the
    /// same fault overlay with equal keys compute the same output on every
    /// window, so a key may stand in for the plan in a fitness memo.
    ///
    /// Liveness is walked backwards from the output PE (`out_row`, last
    /// column) under the overlay: a `StuckAt` PE reads nothing, a
    /// `RandomOutput` PE reads both inputs (its hash mixes them in), and an
    /// `InvertedOutput` or healthy PE reads what its function
    /// [reads](PeFunction::reads).  The key holds the output row, the live
    /// mask, each live PE's opcode (except under `StuckAt`, which ignores
    /// it) and each array-input selector a live PE reads, with a "used" bit,
    /// so genes no path to the output reads never change it.  The overlay
    /// itself is not in the key: compare keys of plans on one overlay only.
    /// The key uses the low [`PHENOTYPE_BITS`](Self::PHENOTYPE_BITS) bits.
    pub fn phenotype(&self) -> u128 {
        const { assert!(PE_GENES <= 16 && ARRAY_COLS + ARRAY_ROWS <= 8) };
        let output = self.out_row * ARRAY_COLS + ARRAY_COLS - 1;
        let mut live = 1u16 << output;
        // Live PEs' opcodes, 4 bits each in row-major order.
        let mut opcodes = 0u64;
        // Input-mux bits in input-gene order: north columns, then west rows.
        let mut used_inputs = 0u8;
        // Data flows only east and south, so each PE's readers come after it
        // in row-major order: one reverse pass settles liveness.
        for idx in (0..=output).rev() {
            if live & (1 << idx) == 0 {
                continue;
            }
            let (reads_w, reads_n) = match self.faults[idx] {
                // A stuck PE ignores its inputs and its opcode alike.
                Some(FaultBehaviour::StuckAt { .. }) => continue,
                Some(FaultBehaviour::RandomOutput { .. }) => (true, true),
                Some(FaultBehaviour::InvertedOutput) | None => self.fns[idx].reads(),
            };
            opcodes |= (self.fns[idx].gene() as u64) << (4 * idx);
            let (r, c) = (idx / ARRAY_COLS, idx % ARRAY_COLS);
            if reads_w {
                if c == 0 {
                    used_inputs |= 1 << (ARRAY_COLS + r);
                } else {
                    live |= 1 << (idx - 1);
                }
            }
            if reads_n {
                if r == 0 {
                    used_inputs |= 1 << c;
                } else {
                    live |= 1 << (idx - ARRAY_COLS);
                }
            }
        }
        // Layout: out_row (2 bits) | live mask (16) | 16 × opcode (4) |
        // 8 × (selector (4) + used bit), PHENOTYPE_BITS in all.
        let mut key = self.out_row as u128 | (live as u128) << 2 | (opcodes as u128) << 18;
        for (i, &sel) in self.north.iter().chain(&self.west).enumerate() {
            if used_inputs & (1 << i) != 0 {
                key |= ((sel as u128) << 1 | 1) << (82 + 5 * i);
            }
        }
        key
    }

    /// Width of a [`phenotype`](Self::phenotype) key: the bits above it are
    /// always zero.
    pub const PHENOTYPE_BITS: u32 = 2 + 16 + 4 * 16 + 5 * 8;

    /// Windows per block of the lane-parallel evaluation path.  Each PE
    /// opcode (and fault behaviour) is dispatched once per block and applied
    /// across the whole lane buffer, which the compiler vectorises on `u8`
    /// lanes.
    pub const BLOCK: usize = 64;

    /// Computes the array output for one 3×3 window — bit-identical to the
    /// reference interpreter on the same genotype and overlay.  The scalar
    /// path for single-window callers; bulk callers go through the block
    /// path of [`evaluate_windows_into`](Self::evaluate_windows_into) and
    /// [`evaluate_planes_into`](Self::evaluate_planes_into).
    #[inline]
    pub fn evaluate_window(&self, window: &Window3x3) -> u8 {
        let px = &window.0;
        // `prev` holds the north inputs of the current row: the selected
        // window pixels for row 0, the previous row's outputs afterwards.
        let mut prev = [0u8; ARRAY_COLS];
        for (c, p) in prev.iter_mut().enumerate() {
            *p = px[self.north[c]];
        }
        let mut out = 0u8;
        // Data only flows east and south, so rows below the output row can
        // never reach the east output — stop there.
        for r in 0..=self.out_row {
            let mut w_in = px[self.west[r]];
            for (c, p) in prev.iter_mut().enumerate() {
                let idx = r * ARRAY_COLS + c;
                let correct = self.fns[idx].apply(w_in, *p);
                let v = match self.faults[idx] {
                    Some(fault) => fault.corrupt(correct, w_in, *p),
                    None => correct,
                };
                *p = v;
                w_in = v;
            }
            out = w_in;
        }
        out
    }

    /// Evaluates one block of at most [`BLOCK`](Self::BLOCK) windows into
    /// `out` with the per-PE dispatch hoisted out of the pixel loop: each
    /// opcode, and each fault behaviour, is matched once and applied across
    /// the whole lane buffer, which the compiler turns into `u8` SIMD.
    /// `load(sel, lanes)` fills `lanes` with window pixel `sel` of every
    /// window of the block; it is the only thing that differs between the
    /// AoS and SoA window layouts.
    #[inline(always)]
    fn evaluate_block(&self, out: &mut [u8], load: impl Fn(usize, &mut [u8])) {
        let len = out.len();
        debug_assert!(len <= Self::BLOCK);
        // `north[c]` holds column `c`'s north inputs for every window of the
        // block: the selected window pixels before row 0, the previous row's
        // outputs afterwards.  Each PE overwrites its column's lanes with its
        // own outputs, which are both the next row's north inputs and, within
        // the row, the west inputs of the PE to its east — so no lanes are
        // ever copied between PEs.
        let mut north = [[0u8; Self::BLOCK]; ARRAY_COLS];
        for (c, lanes) in north.iter_mut().enumerate() {
            load(self.north[c], &mut lanes[..len]);
        }
        let mut west = [0u8; Self::BLOCK];
        for r in 0..=self.out_row {
            load(self.west[r], &mut west[..len]);
            for c in 0..ARRAY_COLS {
                let (done, rest) = north.split_at_mut(c);
                let w = match done.last() {
                    Some(lanes) => &lanes[..len],
                    None => &west[..len],
                };
                let n = &mut rest[0][..len];
                let idx = r * ARRAY_COLS + c;
                match self.faults[idx] {
                    None => apply_lanes(self.fns[idx], w, n),
                    Some(fault) => apply_faulty_lanes(self.fns[idx], fault, w, n),
                }
            }
        }
        out.copy_from_slice(&north[ARRAY_COLS - 1][..len]);
    }

    /// Evaluates every window of `windows` into `out` (same length) through
    /// the lane-parallel block path, fault overlay included.  Bit-identical
    /// to calling [`evaluate_window`](Self::evaluate_window) per element.
    pub fn evaluate_windows_into(&self, windows: &[Window3x3], out: &mut [u8]) {
        assert_eq!(windows.len(), out.len(), "window/output length mismatch");
        for (wc, oc) in windows.chunks(Self::BLOCK).zip(out.chunks_mut(Self::BLOCK)) {
            self.evaluate_block(oc, |sel, lanes| {
                for (lane, w) in lanes.iter_mut().zip(wc) {
                    *lane = w.0[sel];
                }
            });
        }
    }

    /// Evaluates the windows `start..start + out.len()` of the SoA plane
    /// layout into `out` — the plane-layout counterpart of
    /// [`evaluate_windows_into`](Self::evaluate_windows_into), bit-identical
    /// to gathering each window and calling
    /// [`evaluate_window`](Self::evaluate_window).  Each lane buffer is
    /// filled with one contiguous copy from the selected plane instead of a
    /// stride-9 gather across AoS windows.
    pub fn evaluate_planes_into(&self, planes: &WindowPlanes, start: usize, out: &mut [u8]) {
        assert!(
            start + out.len() <= planes.len(),
            "plane range out of bounds"
        );
        for (k, oc) in out.chunks_mut(Self::BLOCK).enumerate() {
            let base = start + k * Self::BLOCK;
            self.evaluate_block(oc, |sel, lanes| {
                lanes.copy_from_slice(&planes.plane(sel)[base..base + lanes.len()]);
            });
        }
    }

    /// Filters a whole image through the plan: windows are extracted one
    /// row at a time and pushed through the block path, so evaluation is
    /// lane-parallel without materialising the whole window set.
    pub fn filter_image(&self, img: &GrayImage) -> GrayImage {
        let width = img.width();
        let mut row_windows: Vec<Window3x3> = Vec::with_capacity(width);
        let mut data = vec![0u8; img.len()];
        for y in 0..img.height() {
            row_windows.clear();
            ehw_image::window::for_each_window_in_rows(img, y, y + 1, |_, _, w| {
                row_windows.push(*w);
            });
            self.evaluate_windows_into(&row_windows, &mut data[y * width..(y + 1) * width]);
        }
        GrayImage::from_vec(width, img.height(), data)
    }
}

/// Applies one PE opcode across a block of lanes, writing each result over
/// the north input: `n[k] = f(w[k], n[k])`.  The single dispatch per block
/// (instead of per pixel) is what lets the compiler vectorise the
/// arithmetic.
fn apply_lanes(f: PeFunction, w: &[u8], n: &mut [u8]) {
    debug_assert_eq!(w.len(), n.len());
    match f {
        PeFunction::IdentityW => n.copy_from_slice(w),
        PeFunction::IdentityN => {}
        PeFunction::ConstMax => n.fill(255),
        PeFunction::InvertW => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = 255 - x;
            }
        }
        PeFunction::Or => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y |= x;
            }
        }
        PeFunction::And => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y &= x;
            }
        }
        PeFunction::Xor => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y ^= x;
            }
        }
        PeFunction::ShiftRightW => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x >> 1;
            }
        }
        PeFunction::AddSat => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x.saturating_add(*y);
            }
        }
        PeFunction::SubSatWN => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x.saturating_sub(*y);
            }
        }
        PeFunction::SubSatNW => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = y.saturating_sub(x);
            }
        }
        PeFunction::AbsDiff => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x.abs_diff(*y);
            }
        }
        PeFunction::Average => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = ((x as u16 + *y as u16) / 2) as u8;
            }
        }
        PeFunction::Max => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x.max(*y);
            }
        }
        PeFunction::Min => {
            for (y, &x) in n.iter_mut().zip(w) {
                *y = x.min(*y);
            }
        }
        PeFunction::ShiftRightN => {
            for y in n.iter_mut() {
                *y >>= 1;
            }
        }
    }
}

/// Applies a faulty PE across a block of lanes:
/// `n[k] = fault.corrupt(f(w[k], n[k]), w[k], n[k])`, with the behaviour
/// matched once per block like the opcode in [`apply_lanes`].
fn apply_faulty_lanes(f: PeFunction, fault: FaultBehaviour, w: &[u8], n: &mut [u8]) {
    match fault {
        FaultBehaviour::StuckAt { value } => n.fill(value),
        FaultBehaviour::InvertedOutput => {
            apply_lanes(f, w, n);
            for y in n.iter_mut() {
                *y = !*y;
            }
        }
        FaultBehaviour::RandomOutput { .. } => {
            // The hash reads the PE's north input, which the correct
            // values overwrite, so keep a copy of it.
            let mut n_in = [0u8; CompiledArray::BLOCK];
            let n_in = &mut n_in[..n.len()];
            n_in.copy_from_slice(n);
            apply_lanes(f, w, n);
            for ((y, &x), &ni) in n.iter_mut().zip(w).zip(n_in.iter()) {
                *y = fault.corrupt(*y, x, ni);
            }
        }
    }
}

#[cfg(test)]
impl CompiledArray {
    /// `true` if the plan carries at least one faulty PE.
    pub(crate) fn has_faults(&self) -> bool {
        self.faults.iter().any(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn random_overlay(rng: &mut StdRng, density: f64) -> BTreeMap<(usize, usize), FaultBehaviour> {
        let mut overlay = BTreeMap::new();
        for row in 0..ARRAY_ROWS {
            for col in 0..ARRAY_COLS {
                if rng.gen_bool(density) {
                    let behaviour = match rng.gen_range(0..3) {
                        0 => FaultBehaviour::RandomOutput { seed: rng.gen() },
                        1 => FaultBehaviour::StuckAt { value: rng.gen() },
                        _ => FaultBehaviour::InvertedOutput,
                    };
                    overlay.insert((row, col), behaviour);
                }
            }
        }
        overlay
    }

    #[test]
    fn identity_plan_passes_center() {
        let plan = CompiledArray::new(&Genotype::identity());
        let w = Window3x3([10, 20, 30, 40, 50, 60, 70, 80, 90]);
        assert_eq!(plan.evaluate_window(&w), 50);
        assert!(!plan.has_faults());
    }

    #[test]
    fn block_path_matches_scalar_path() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for _ in 0..50 {
            let g = Genotype::random(&mut rng);
            let plan = CompiledArray::new(&g);
            // An awkward length: several full blocks plus a ragged tail.
            let windows: Vec<Window3x3> = (0..CompiledArray::BLOCK * 2 + 17)
                .map(|_| Window3x3(std::array::from_fn(|_| rng.gen())))
                .collect();
            let mut block = vec![0u8; windows.len()];
            plan.evaluate_windows_into(&windows, &mut block);
            for (k, w) in windows.iter().enumerate() {
                assert_eq!(block[k], plan.evaluate_window(w), "window {k}");
            }
        }
    }

    #[test]
    fn patched_plan_matches_fresh_compile() {
        let mut rng = StdRng::seed_from_u64(0x9A7C);
        for rate in [0usize, 1, 3, 5, 25] {
            for _ in 0..50 {
                let parent = Genotype::random(&mut rng);
                let overlay = random_overlay(&mut rng, 0.2);
                let parent_plan =
                    CompiledArray::with_faults(&parent, overlay.iter().map(|(&p, &b)| (p, b)));
                let child = parent.mutated(rate, &mut rng);
                let patched = parent_plan.patch(&child.diff_from(&parent));
                let fresh =
                    CompiledArray::with_faults(&child, overlay.iter().map(|(&p, &b)| (p, b)));
                assert_eq!(patched, fresh, "rate {rate}");
            }
        }
    }

    #[test]
    fn apply_then_revert_restores_the_parent_plan() {
        // The worker-resident round trip: apply the child's diff, evaluate,
        // revert to the parent — the plan must come back byte-identical and
        // equal the by-value patch in between.
        let mut rng = StdRng::seed_from_u64(0x51DE);
        for rate in [1usize, 3, 25] {
            for _ in 0..50 {
                let parent = Genotype::random(&mut rng);
                let overlay = random_overlay(&mut rng, 0.2);
                let parent_plan =
                    CompiledArray::with_faults(&parent, overlay.iter().map(|(&p, &b)| (p, b)));
                let child = parent.mutated(rate, &mut rng);
                let diff = child.diff_from(&parent);
                let mut resident = parent_plan;
                resident.apply(&diff);
                assert_eq!(resident, parent_plan.patch(&diff), "rate {rate}");
                resident.revert(&diff);
                assert_eq!(resident, parent_plan, "rate {rate}");
            }
        }
    }

    #[test]
    fn patch_fault_matches_fresh_compile() {
        let mut rng = StdRng::seed_from_u64(0xFA);
        let g = Genotype::random(&mut rng);
        let mut overlay = BTreeMap::new();
        let mut plan = CompiledArray::new(&g);
        // Inject, replace and clear faults one edit at a time; the patched
        // plan must track a fresh compile of the full overlay throughout.
        let edits: [((usize, usize), Option<FaultBehaviour>); 6] = [
            ((1, 2), Some(FaultBehaviour::StuckAt { value: 9 })),
            ((0, 3), Some(FaultBehaviour::InvertedOutput)),
            ((1, 2), Some(FaultBehaviour::RandomOutput { seed: 7 })),
            ((0, 3), None),
            ((1, 2), None),
            ((3, 3), Some(FaultBehaviour::StuckAt { value: 0 })),
        ];
        for ((row, col), behaviour) in edits {
            match behaviour {
                Some(b) => {
                    overlay.insert((row, col), b);
                }
                None => {
                    overlay.remove(&(row, col));
                }
            }
            plan = plan.patch_fault(row, col, behaviour);
            let fresh = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            assert_eq!(plan, fresh);
            assert_eq!(plan.has_faults(), !overlay.is_empty());
        }
        // Out-of-array positions are ignored, like with_faults.
        let before = plan;
        plan = plan.patch_fault(7, 7, Some(FaultBehaviour::InvertedOutput));
        assert_eq!(plan, before);
    }

    #[test]
    fn planes_path_matches_window_path() {
        use ehw_image::window::WindowPlanes;
        let mut rng = StdRng::seed_from_u64(0x504C);
        let img = synth::shapes(19, 11, 4);
        let planes = WindowPlanes::new(&img);
        for _ in 0..25 {
            let g = Genotype::random(&mut rng);
            let overlay = random_overlay(&mut rng, 0.15);
            let plan = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            let mut out = vec![0u8; planes.len()];
            plan.evaluate_planes_into(&planes, 0, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let window = Window3x3(std::array::from_fn(|sel| planes.plane(sel)[i]));
                assert_eq!(o, plan.evaluate_window(&window), "window {i}");
            }
            // Sub-range evaluation (arbitrary start, ragged length) agrees
            // with the full pass.
            let start = 7;
            let mut sub = vec![0u8; planes.len() - start - 3];
            plan.evaluate_planes_into(&planes, start, &mut sub);
            assert_eq!(&sub[..], &out[start..start + sub.len()]);
        }
    }

    #[test]
    fn out_of_range_selectors_compile_to_center() {
        let mut g = Genotype::identity();
        g.input_genes = [9, 42, 255, 10, 100, 9, 200, 11];
        let plan = CompiledArray::new(&g);
        let w = Window3x3([1, 2, 3, 4, 99, 6, 7, 8, 9]);
        // Every input mux decodes to the centre; identity PEs pass it through.
        assert_eq!(plan.evaluate_window(&w), 99);
    }

    #[test]
    fn overlay_outside_array_is_ignored() {
        let g = Genotype::identity();
        let plan = CompiledArray::with_faults(&g, [((7, 7), FaultBehaviour::StuckAt { value: 1 })]);
        assert!(!plan.has_faults());
        let w = Window3x3([0, 0, 0, 0, 50, 0, 0, 0, 0]);
        assert_eq!(plan.evaluate_window(&w), 50);
    }

    #[test]
    fn stuck_fault_on_output_path_dominates() {
        let g = Genotype::identity();
        let plan = CompiledArray::with_faults(
            &g,
            [((0, ARRAY_COLS - 1), FaultBehaviour::StuckAt { value: 7 })],
        );
        assert!(plan.has_faults());
        let img = synth::gradient(16, 16);
        assert!(plan.filter_image(&img).pixels().all(|p| p == 7));
    }
}
