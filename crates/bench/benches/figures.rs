//! Figs. 4–6 and 8–14: the ten sweep figures, regenerated from one
//! characterization grid (see `stash_bench::figures`).

fn main() -> std::process::ExitCode {
    stash_bench::figures::regenerate()
}
