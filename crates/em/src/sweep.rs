//! Batched, zero-allocation frequency sweeps over channels and lines.
//!
//! The scalar path ([`Channel::abcd`]) recomputes the per-unit-length RLGC
//! constants and the segment ABCD matrix for every element at every
//! frequency, even when consecutive segments share a layer. A [`SweepPlan`]
//! amortises that work across a whole (designs × frequencies) evaluation:
//!
//! * **RLGC hoisting** — `odd_mode_rlgc` runs once per *distinct layer* per
//!   frequency, not once per element per frequency;
//! * **prototype interning** — the ABCD lanes of each distinct
//!   `(layer, length)` segment and each distinct via are built once and
//!   reused across elements, channels, and repeated sweeps;
//! * **structure-of-arrays lanes** — all per-frequency complex state lives
//!   in flat `Vec<f64>` re/im lanes (`AbcdLanes`), cascaded point by point;
//! * **scratch arenas** — chain and S-parameter lanes are owned by the plan
//!   and reused, so a warm plan allocates nothing per sweep.
//!
//! ## Bit-identity contract
//!
//! Batched results are **bit-identical** to the scalar per-point path.
//! This holds by construction, not by tolerance: every
//! per-point value is produced by the *same pure functions* the scalar path
//! calls ([`odd_mode_rlgc`], [`stripline_abcd`](crate::channel),
//! [`Via::abcd`], [`AbcdMatrix::cascade`], [`AbcdMatrix::to_s_params`]) with
//! the same arguments in the same order — the plan only *caches and reuses*
//! their results.

use crate::abcd::{to_db, AbcdMatrix};
use crate::channel::{stripline_abcd, Channel, Element};
use crate::complex::Complex;
use crate::rlgc::{odd_mode_rlgc, RlgcParams};
use crate::stackup::DiffStripline;
use crate::via::Via;

/// Structure-of-arrays storage for one 2x2 complex matrix per frequency:
/// eight flat `f64` lanes (a/b/c/d × re/im). Also reused to hold the four
/// S-parameters (a=s11, b=s21, c=s12, d=s22).
#[derive(Debug, Clone, Default)]
struct AbcdLanes {
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    b_re: Vec<f64>,
    b_im: Vec<f64>,
    c_re: Vec<f64>,
    c_im: Vec<f64>,
    d_re: Vec<f64>,
    d_im: Vec<f64>,
}

impl AbcdLanes {
    fn with_len(n: usize) -> Self {
        let mut lanes = Self::default();
        lanes.resize(n);
        lanes
    }

    fn len(&self) -> usize {
        self.a_re.len()
    }

    fn resize(&mut self, n: usize) {
        for lane in [
            &mut self.a_re,
            &mut self.a_im,
            &mut self.b_re,
            &mut self.b_im,
            &mut self.c_re,
            &mut self.c_im,
            &mut self.d_re,
            &mut self.d_im,
        ] {
            lane.resize(n, 0.0);
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> AbcdMatrix {
        AbcdMatrix {
            a: Complex::new(self.a_re[i], self.a_im[i]),
            b: Complex::new(self.b_re[i], self.b_im[i]),
            c: Complex::new(self.c_re[i], self.c_im[i]),
            d: Complex::new(self.d_re[i], self.d_im[i]),
        }
    }

    #[inline(always)]
    fn set(&mut self, i: usize, m: &AbcdMatrix) {
        self.a_re[i] = m.a.re;
        self.a_im[i] = m.a.im;
        self.b_re[i] = m.b.re;
        self.b_im[i] = m.b.im;
        self.c_re[i] = m.c.re;
        self.c_im[i] = m.c.im;
        self.d_re[i] = m.d.re;
        self.d_im[i] = m.d.im;
    }

    fn fill_identity(&mut self) {
        self.a_re.fill(1.0);
        self.a_im.fill(0.0);
        self.b_re.fill(0.0);
        self.b_im.fill(0.0);
        self.c_re.fill(0.0);
        self.c_im.fill(0.0);
        self.d_re.fill(1.0);
        self.d_im.fill(0.0);
    }

    /// Byte-for-byte copy of `other`'s lanes; reuses this arena's capacity.
    fn copy_from(&mut self, other: &Self) {
        for (dst, src) in [
            (&mut self.a_re, &other.a_re),
            (&mut self.a_im, &other.a_im),
            (&mut self.b_re, &other.b_re),
            (&mut self.b_im, &other.b_im),
            (&mut self.c_re, &other.c_re),
            (&mut self.c_im, &other.c_im),
            (&mut self.d_re, &other.d_re),
            (&mut self.d_im, &other.d_im),
        ] {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }
}

/// One interned element of the channel currently being swept.
#[derive(Debug, Clone, Copy)]
enum ElemRef {
    /// Index into the line-prototype arena.
    Line(usize),
    /// Index into the via-prototype arena.
    Via(usize),
}

/// Cascades `proto` into `chain` at every point through the exact scalar
/// cascade — the bit-identity anchor of the batched path.
fn cascade_lanes(chain: &mut AbcdLanes, proto: &AbcdLanes) {
    for i in 0..chain.len() {
        let m = chain.get(i).cascade(&proto.get(i));
        chain.set(i, &m);
    }
}

/// Converts every chain point to S-parameters through the exact scalar
/// conversion, storing them as (a=s11, b=s21, c=s12, d=s22).
fn sparams_lanes(chain: &AbcdLanes, out: &mut AbcdLanes, z_ref: f64) {
    for i in 0..chain.len() {
        let (s11, s21, s12, s22) = chain.get(i).to_s_params(z_ref);
        out.set(
            i,
            &AbcdMatrix {
                a: s11,
                b: s21,
                c: s12,
                d: s22,
            },
        );
    }
}

/// A reusable batched-sweep arena over a fixed frequency grid.
///
/// Build one per sweep grid, then evaluate any number of channels or lines
/// against it; prototype ABCD lanes and RLGC rows are interned on first
/// sight and reused for every later element, channel, and repeated sweep.
/// A warm plan (all prototypes seen) allocates nothing per sweep.
///
/// ```
/// use isop_em::channel::{Channel, Element};
/// use isop_em::stackup::DiffStripline;
/// use isop_em::sweep::SweepPlan;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ch = Channel::new(vec![Element::Stripline {
///     layer: DiffStripline::default(),
///     length_inches: 4.0,
/// }])?;
/// let mut plan = SweepPlan::log_spaced(1e8, 4e10, 64);
/// let view = plan.sweep(&ch);
/// assert_eq!(view.len(), 64);
/// assert!(view.il_db(63) < view.il_db(0), "loss grows with frequency");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    freqs: Vec<f64>,
    /// Interned distinct layers, in first-seen order.
    layers: Vec<DiffStripline>,
    /// RLGC rows, `freqs.len()` entries per interned layer, row-major.
    rlgc: Vec<RlgcParams>,
    /// Interned `(layer index, length bits)` line prototypes.
    line_keys: Vec<(usize, u64)>,
    line_lanes: Vec<AbcdLanes>,
    /// Interned via prototypes.
    via_keys: Vec<Via>,
    via_lanes: Vec<AbcdLanes>,
    /// Element references of the channel being swept (reused scratch).
    elems: Vec<ElemRef>,
    /// Cascaded chain lanes (reused scratch).
    chain: AbcdLanes,
    /// S-parameter lanes of the last sweep (a=s11, b=s21, c=s12, d=s22).
    out: AbcdLanes,
}

impl Default for SweepPlan {
    /// An empty-grid plan (sweeps produce zero points until rebuilt).
    fn default() -> Self {
        Self::new(Vec::new())
    }
}

impl SweepPlan {
    /// A plan over an arbitrary frequency grid (Hz, caller's order).
    pub fn new(freqs: Vec<f64>) -> Self {
        Self {
            freqs,
            layers: Vec::new(),
            rlgc: Vec::new(),
            line_keys: Vec::new(),
            line_lanes: Vec::new(),
            via_keys: Vec::new(),
            via_lanes: Vec::new(),
            elems: Vec::new(),
            chain: AbcdLanes::default(),
            out: AbcdLanes::default(),
        }
    }

    /// A plan over `n` logarithmically spaced frequencies in
    /// `[f_start_hz, f_stop_hz]` — bit-identical to the grid of
    /// [`FrequencySweep::of_layer`](crate::sparams::FrequencySweep::of_layer).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the band is empty/non-positive.
    pub fn log_spaced(f_start_hz: f64, f_stop_hz: f64, n: usize) -> Self {
        assert!(n >= 2, "sweep needs at least two points");
        assert!(
            f_start_hz > 0.0 && f_stop_hz > f_start_hz,
            "invalid frequency band"
        );
        let log_lo = f_start_hz.ln();
        let log_hi = f_stop_hz.ln();
        let freqs = (0..n)
            .map(|i| (log_lo + (log_hi - log_lo) * i as f64 / (n - 1) as f64).exp())
            .collect();
        Self::new(freqs)
    }

    /// The frequency grid, Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of distinct interned `(layer, length)` / via prototypes —
    /// the arena footprint, exposed for tests and diagnostics.
    pub fn interned_prototypes(&self) -> usize {
        self.line_keys.len() + self.via_keys.len()
    }

    /// Drops every interned prototype and RLGC row (keeps the grid and the
    /// scratch arenas). Use when a long-lived plan has accumulated
    /// prototypes for designs that will not recur.
    pub fn reset(&mut self) {
        self.layers.clear();
        self.rlgc.clear();
        self.line_keys.clear();
        self.line_lanes.clear();
        self.via_keys.clear();
        self.via_lanes.clear();
    }

    /// Interns `layer`, computing its RLGC row on first sight.
    fn intern_layer(&mut self, layer: &DiffStripline) -> usize {
        if let Some(i) = self.layers.iter().position(|l| l == layer) {
            return i;
        }
        self.layers.push(*layer);
        self.rlgc.reserve(self.freqs.len());
        for &f in &self.freqs {
            self.rlgc.push(odd_mode_rlgc(layer, f));
        }
        self.layers.len() - 1
    }

    /// Interns a `(layer, length)` line prototype, building its ABCD lanes
    /// from the hoisted RLGC row on first sight.
    fn intern_line(&mut self, layer: &DiffStripline, length_inches: f64) -> usize {
        let li = self.intern_layer(layer);
        let key = (li, length_inches.to_bits());
        if let Some(i) = self.line_keys.iter().position(|k| *k == key) {
            return i;
        }
        let nf = self.freqs.len();
        let mut lanes = AbcdLanes::with_len(nf);
        let row = &self.rlgc[li * nf..(li + 1) * nf];
        for (i, (&f, p)) in self.freqs.iter().zip(row).enumerate() {
            lanes.set(i, &stripline_abcd(p, f, length_inches));
        }
        self.line_keys.push(key);
        self.line_lanes.push(lanes);
        self.line_lanes.len() - 1
    }

    /// Interns a via prototype, building its ABCD lanes on first sight.
    fn intern_via(&mut self, via: &Via) -> usize {
        if let Some(i) = self.via_keys.iter().position(|v| v == via) {
            return i;
        }
        let nf = self.freqs.len();
        let mut lanes = AbcdLanes::with_len(nf);
        for (i, &f) in self.freqs.iter().enumerate() {
            lanes.set(i, &via.abcd(f));
        }
        self.via_keys.push(*via);
        self.via_lanes.push(lanes);
        self.via_lanes.len() - 1
    }

    /// Sweeps `channel`'s four S-parameters over the whole grid.
    ///
    /// Bit-identical to calling [`Channel::abcd`] +
    /// [`AbcdMatrix::to_s_params`] per frequency (including the leading
    /// identity cascade). The returned view borrows the plan's output
    /// arena, so it is invalidated by the next sweep.
    pub fn sweep(&mut self, channel: &Channel) -> SweepView<'_> {
        self.elems.clear();
        for e in channel.elements() {
            let r = match e {
                Element::Stripline {
                    layer,
                    length_inches,
                } => ElemRef::Line(self.intern_line(layer, *length_inches)),
                Element::Via(v) => ElemRef::Via(self.intern_via(v)),
            };
            self.elems.push(r);
        }
        let nf = self.freqs.len();
        self.chain.resize(nf);
        self.chain.fill_identity();
        for r in &self.elems {
            let proto = match r {
                ElemRef::Line(i) => &self.line_lanes[*i],
                ElemRef::Via(i) => &self.via_lanes[*i],
            };
            cascade_lanes(&mut self.chain, proto);
        }
        self.out.resize(nf);
        sparams_lanes(&self.chain, &mut self.out, channel.reference_impedance());
        SweepView {
            freqs: &self.freqs,
            s: &self.out,
        }
    }

    /// Sweeps a single stripline of `length_inches` on `layer`, referenced
    /// to `z_ref` ohms.
    ///
    /// Bit-identical to the scalar
    /// [`FrequencySweep::of_layer`](crate::sparams::FrequencySweep::of_layer)
    /// arithmetic: the prototype lanes are converted directly (no identity
    /// cascade), exactly as `of_layer` converts the bare line matrix.
    pub fn sweep_line(
        &mut self,
        layer: &DiffStripline,
        length_inches: f64,
        z_ref: f64,
    ) -> SweepView<'_> {
        let idx = self.intern_line(layer, length_inches);
        self.chain.copy_from(&self.line_lanes[idx]);
        self.out.resize(self.freqs.len());
        sparams_lanes(&self.chain, &mut self.out, z_ref);
        SweepView {
            freqs: &self.freqs,
            s: &self.out,
        }
    }

    /// Sweeps many channels through one plan, invoking `visit` with each
    /// channel's index and view. Prototypes shared between channels are
    /// computed once — this is the (designs × frequencies) batch entry
    /// point the async-scheduler roadmap item builds on.
    pub fn sweep_channels<F>(&mut self, channels: &[Channel], mut visit: F)
    where
        F: FnMut(usize, SweepView<'_>),
    {
        for (i, ch) in channels.iter().enumerate() {
            let view = self.sweep(ch);
            visit(i, view);
        }
    }
}

/// Read-only view of the last sweep's S-parameters, borrowed from the
/// plan's output arena.
#[derive(Debug, Clone, Copy)]
pub struct SweepView<'a> {
    freqs: &'a [f64],
    s: &'a AbcdLanes,
}

impl SweepView<'_> {
    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Frequency of point `i`, Hz.
    pub fn freq(&self, i: usize) -> f64 {
        self.freqs[i]
    }

    /// The frequency grid, Hz.
    pub fn freqs(&self) -> &[f64] {
        self.freqs
    }

    /// `S11` at point `i`.
    pub fn s11(&self, i: usize) -> Complex {
        Complex::new(self.s.a_re[i], self.s.a_im[i])
    }

    /// `S21` at point `i`.
    pub fn s21(&self, i: usize) -> Complex {
        Complex::new(self.s.b_re[i], self.s.b_im[i])
    }

    /// `S12` at point `i`.
    pub fn s12(&self, i: usize) -> Complex {
        Complex::new(self.s.c_re[i], self.s.c_im[i])
    }

    /// `S22` at point `i`.
    pub fn s22(&self, i: usize) -> Complex {
        Complex::new(self.s.d_re[i], self.s.d_im[i])
    }

    /// Insertion loss `|S21|` in dB at point `i`.
    pub fn il_db(&self, i: usize) -> f64 {
        to_db(self.s21(i))
    }

    /// Return loss `|S11|` in dB at point `i`.
    pub fn rl_db(&self, i: usize) -> f64 {
        to_db(self.s11(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripline::odd_mode_z0;

    fn mixed_channel() -> Channel {
        let a = DiffStripline::default();
        let b = DiffStripline {
            trace_width: 6.0,
            ..DiffStripline::default()
        };
        Channel::new(vec![
            Element::Stripline {
                layer: a,
                length_inches: 2.0,
            },
            Element::Via(Via::default()),
            Element::Stripline {
                layer: b,
                length_inches: 3.0,
            },
            Element::Via(Via {
                stub_length: 0.0,
                ..Via::default()
            }),
            // Repeats the first prototype exactly — must intern, not rebuild.
            Element::Stripline {
                layer: a,
                length_inches: 2.0,
            },
        ])
        .expect("valid channel")
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let ch = mixed_channel();
        let mut plan = SweepPlan::log_spaced(1e8, 4e10, 37);
        let view = plan.sweep(&ch);
        let z = ch.reference_impedance();
        for i in 0..view.len() {
            let f = view.freq(i);
            let (s11, s21, s12, s22) = ch.abcd(f).to_s_params(z);
            for (got, want) in [
                (view.s11(i), s11),
                (view.s21(i), s21),
                (view.s12(i), s12),
                (view.s22(i), s22),
            ] {
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "point {i}");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "point {i}");
            }
        }
    }

    #[test]
    fn prototypes_intern_across_elements_and_sweeps() {
        let ch = mixed_channel();
        let mut plan = SweepPlan::log_spaced(1e8, 4e10, 16);
        let _ = plan.sweep(&ch);
        // 5 elements, but the repeated segment shares a prototype:
        // 2 distinct lines + 2 distinct vias.
        assert_eq!(plan.interned_prototypes(), 4);
        let _ = plan.sweep(&ch);
        assert_eq!(plan.interned_prototypes(), 4, "warm sweep interns nothing");
        plan.reset();
        assert_eq!(plan.interned_prototypes(), 0);
    }

    #[test]
    fn sweep_line_matches_scalar_of_layer_arithmetic() {
        let layer = DiffStripline::default();
        let z = odd_mode_z0(&layer);
        let mut plan = SweepPlan::log_spaced(1e8, 4e10, 21);
        let view = plan.sweep_line(&layer, 1.0, z);
        let sweep = crate::sparams::FrequencySweep::of_layer(&layer, 1e8, 4e10, 21, 1.0, z);
        for (i, p) in sweep.points().iter().enumerate() {
            assert_eq!(view.freq(i).to_bits(), p.f_hz.to_bits());
            assert_eq!(view.il_db(i).to_bits(), p.il_db.to_bits());
            assert_eq!(view.rl_db(i).to_bits(), p.rl_db.to_bits());
        }
    }

    #[test]
    fn sweep_channels_visits_every_channel_in_order() {
        let chans = vec![mixed_channel(), mixed_channel()];
        let mut plan = SweepPlan::log_spaced(1e9, 2e10, 8);
        let mut seen = Vec::new();
        plan.sweep_channels(&chans, |i, v| {
            seen.push((i, v.len()));
        });
        assert_eq!(seen, vec![(0, 8), (1, 8)]);
    }
}
