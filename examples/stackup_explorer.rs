//! Signal-integrity exploration with the EM substrate alone: what a
//! designer's "what-if" session looks like before any optimization.
//!
//! * sweeps trace width and spacing to map the impedance surface,
//! * tabulates insertion loss against frequency for one geometry,
//! * cross-checks the closed-form model against the 2-D finite-difference
//!   field solver, and
//! * quantifies the crosstalk cost of tightening the pair distance.
//!
//! Run with:
//! ```sh
//! cargo run --release --example stackup_explorer
//! ```

use isop_em::fdsolver::{solve_odd_mode, FdConfig};
use isop_em::rlgc::insertion_loss_db_per_inch;
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_em::stackup::DiffStripline;
use isop_em::units::ghz_to_hz;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = AnalyticalSolver::new();

    // 1. Impedance surface over (W, S).
    println!("Differential impedance (ohm) by trace width x spacing:");
    print!("{:>6}", "W\\S");
    let spacings = [3.0, 5.0, 7.0, 9.0];
    for s in spacings {
        print!("{s:>9.1}");
    }
    println!();
    for w in [3.0, 4.0, 5.0, 6.0, 7.0] {
        print!("{w:>6.1}");
        for s in spacings {
            let layer = DiffStripline::builder()
                .trace_width(w)
                .trace_spacing(s)
                .build()?;
            print!("{:>9.1}", sim.simulate(&layer)?.z_diff);
        }
        println!();
    }

    // 2. Insertion loss of one candidate geometry across frequency.
    let layer = DiffStripline::builder()
        .trace_width(5.0)
        .trace_spacing(6.0)
        .dk_core(3.8)
        .dk_prepreg(3.8)
        .df_core(0.004)
        .df_prepreg(0.004)
        .build()?;
    println!("\nInsertion loss per inch:");
    for f_ghz in [1.0, 4.0, 8.0, 16.0, 32.0] {
        println!(
            "  {f_ghz:>5.1} GHz: {:>7.3} dB/in",
            insertion_loss_db_per_inch(&layer, ghz_to_hz(f_ghz))
        );
    }

    // 3. Cross-check against the finite-difference field solver.
    let fd = solve_odd_mode(
        &layer,
        &FdConfig {
            cells_per_mil: 2.5,
            ..FdConfig::default()
        },
    );
    let analytical = sim.simulate(&layer)?;
    println!(
        "\nField-solver cross-check: Zdiff analytical {:.2} vs FD {:.2} ohm ({:.1}% apart, {} SOR iterations)",
        analytical.z_diff,
        fd.z_diff(),
        100.0 * (analytical.z_diff - fd.z_diff()).abs() / fd.z_diff(),
        fd.iterations
    );

    // 4. Crosstalk vs pair distance: the density/noise trade-off.
    println!("\nNEXT vs pair distance (tighter routing -> more crosstalk):");
    for d in [15.0, 20.0, 25.0, 30.0, 40.0] {
        let l = DiffStripline::builder().pair_distance(d).build()?;
        println!(
            "  D_t = {d:>4.0} mils: NEXT = {:>7.3} mV",
            sim.simulate(&l)?.next
        );
    }
    Ok(())
}
