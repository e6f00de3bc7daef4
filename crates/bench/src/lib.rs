//! Shared helpers for the figure-reproduction binaries and the Criterion benches.
//!
//! Each `figure_NN` binary accepts a small set of flags:
//!
//! * `--quick` — run the experiment at its test-scale configuration (seconds instead
//!   of minutes); useful for smoke tests and CI.
//! * `--csv` — print CSV instead of aligned text tables.
//! * `--reps N`, `--bins N`, `--items N` — override the corresponding configuration
//!   fields where the experiment supports them.
//! * `--seed N` — override the base RNG seed.

#![warn(missing_docs)]

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone, Default)]
pub struct FigureArgs {
    /// Use the experiment's tiny (test-scale) configuration.
    pub quick: bool,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Optional repetition-count override.
    pub reps: Option<usize>,
    /// Optional bin-count override.
    pub bins: Option<usize>,
    /// Optional item-count override.
    pub items: Option<usize>,
    /// Optional seed override.
    pub seed: Option<u64>,
}

impl FigureArgs {
    /// Parses the process arguments, exiting with a usage message on `--help` or on an
    /// unrecognised flag.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (used by tests).
    pub fn parse_from<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_ref() {
                "--quick" => parsed.quick = true,
                "--csv" => parsed.csv = true,
                "--reps" => parsed.reps = Some(Self::expect_num(iter.next(), "--reps")),
                "--bins" => parsed.bins = Some(Self::expect_num(iter.next(), "--bins")),
                "--items" => parsed.items = Some(Self::expect_num(iter.next(), "--items")),
                "--seed" => parsed.seed = Some(Self::expect_num(iter.next(), "--seed") as u64),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: figure_NN [--quick] [--csv] [--reps N] [--bins N] [--items N] [--seed N]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unrecognised argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        parsed
    }

    fn expect_num<S: AsRef<str>>(value: Option<S>, flag: &str) -> usize {
        value
            .and_then(|v| v.as_ref().parse().ok())
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a numeric argument");
                std::process::exit(2);
            })
    }
}

/// Elapsed-time spread of a benchmark config run best-of-reps (see
/// [`best_of_reps`]), shared by the `bench_*` binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepSpread {
    /// Elapsed seconds of the fastest rep: the noise-stripped headline figure.
    pub best_sec: f64,
    /// Elapsed seconds of the slowest rep: it bounds the noise band.
    pub worst_sec: f64,
}

impl RepSpread {
    /// Rate of `ops` operations per rep over the fastest rep.
    #[must_use]
    pub fn max_per_sec(&self, ops: f64) -> f64 {
        ops / self.best_sec
    }

    /// Rate of `ops` operations per rep over the slowest rep.
    #[must_use]
    pub fn min_per_sec(&self, ops: f64) -> f64 {
        ops / self.worst_sec
    }
}

/// Runs `f` `reps` times (at least once) and returns the elapsed-time spread
/// plus what `f` returned on the fastest rep.
pub fn best_of_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (RepSpread, T) {
    let mut timed = || {
        let start = std::time::Instant::now();
        let out = f();
        (start.elapsed().as_secs_f64(), out)
    };
    let (first, mut best_out) = timed();
    let mut spread = RepSpread {
        best_sec: first,
        worst_sec: first,
    };
    for _ in 1..reps {
        let (elapsed, out) = timed();
        if elapsed < spread.best_sec {
            spread.best_sec = elapsed;
            best_out = out;
        }
        spread.worst_sec = spread.worst_sec.max(elapsed);
    }
    (spread, best_out)
}

/// Prints a table either as aligned text or CSV depending on the flags.
pub fn emit(table: &uss_eval::Table, args: &FigureArgs) {
    if args.csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let args = FigureArgs::parse_from(["--quick", "--csv", "--reps", "17", "--seed", "3"]);
        assert!(args.quick);
        assert!(args.csv);
        assert_eq!(args.reps, Some(17));
        assert_eq!(args.seed, Some(3));
        assert_eq!(args.bins, None);
    }

    #[test]
    fn best_of_reps_runs_every_rep_and_keeps_the_fastest_reps_value() {
        let mut calls = 0u64;
        let (spread, _) = best_of_reps(4, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4);
        assert!(spread.best_sec <= spread.worst_sec);
        assert!(spread.max_per_sec(1.0) >= spread.min_per_sec(1.0));
        let mut calls = 0u64;
        let (_, out) = best_of_reps(0, || {
            calls += 1;
            7
        });
        assert_eq!((calls, out), (1, 7));
    }

    #[test]
    fn defaults_are_empty() {
        let args = FigureArgs::parse_from(Vec::<String>::new());
        assert!(!args.quick);
        assert!(!args.csv);
        assert!(args.reps.is_none());
    }
}
