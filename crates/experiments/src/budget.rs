//! Instruction budgets for experiment runs.

/// Per-core instruction budgets for one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up instructions per core (statistics discarded).
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl Budget {
    /// The paper-figure budgets: 500 k warm-up and 300 k measured
    /// instructions per core.
    ///
    /// The paper simulates 100 M instructions per core after warming; the
    /// synthetic workload models are stationary, so bank write *rates* and
    /// criticality mixes converge within a few hundred thousand
    /// instructions — which is what one CPU can sweep over 5 schemes × 10
    /// workloads × 4 configurations in minutes rather than days.
    pub const DEFAULT: Budget = Budget {
        warmup: 500_000,
        measure: 300_000,
    };

    /// [`Budget::DEFAULT`], overridden by `RENUCA_WARMUP` /
    /// `RENUCA_MEASURE`.
    pub fn from_env() -> Result<Self, String> {
        Self::from_env_or(Self::DEFAULT)
    }

    /// `default`, overridden by `RENUCA_WARMUP` / `RENUCA_MEASURE`. An
    /// unset or empty variable keeps the default; any other value must be
    /// a `u64`, or the error names the variable and its value.
    pub fn from_env_or(default: Budget) -> Result<Self, String> {
        let var = |name| std::env::var(name).ok();
        Ok(Budget {
            warmup: parse_count("RENUCA_WARMUP", var("RENUCA_WARMUP"), default.warmup)?,
            measure: parse_count("RENUCA_MEASURE", var("RENUCA_MEASURE"), default.measure)?,
        })
    }

    /// A reduced budget for the multi-configuration sweeps (sensitivity
    /// studies run 150 extra simulations).
    pub fn sweep(self) -> Self {
        Budget {
            warmup: (self.warmup * 3 / 5).max(10_000),
            measure: (self.measure / 2).max(20_000),
        }
    }

    /// Tiny budget for unit/integration tests.
    pub fn test() -> Self {
        Budget {
            warmup: 2_000,
            measure: 10_000,
        }
    }

    /// Budget for cheap single-core characterization runs (22 apps).
    /// Longer than the 16-core budget: WPKI needs several full L2 churns
    /// to reach steady state, and single-core runs are ~50x cheaper.
    pub fn single_core(self) -> Self {
        Budget {
            warmup: self.warmup.min(200_000),
            measure: self.measure * 4,
        }
    }
}

/// One budget variable's value: `default` when unset or empty, else the
/// value parsed as a `u64`.
fn parse_count(name: &str, value: Option<String>, default: u64) -> Result<u64, String> {
    match value.as_deref() {
        None | Some("") => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let b = Budget::DEFAULT;
        assert!(b.measure >= 20_000);
        assert!(b.warmup >= 1_000);
    }

    #[test]
    fn budget_variables_parse_strictly() {
        let some = |v: &str| Some(v.to_string());
        assert_eq!(parse_count("RENUCA_WARMUP", None, 7), Ok(7));
        assert_eq!(parse_count("RENUCA_WARMUP", some(""), 7), Ok(7));
        assert_eq!(parse_count("RENUCA_WARMUP", some("20000"), 7), Ok(20_000));
        assert_eq!(parse_count("RENUCA_WARMUP", some("0"), 7), Ok(0));
        for bad in ["20k", "-1", " 5", "1e5", "18446744073709551616"] {
            let e = parse_count("RENUCA_MEASURE", some(bad), 7).unwrap_err();
            assert!(e.contains("RENUCA_MEASURE") && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn sweep_is_cheaper() {
        let b = Budget {
            warmup: 20_000,
            measure: 120_000,
        };
        let s = b.sweep();
        assert!(s.measure < b.measure);
        assert!(s.warmup <= b.warmup);
    }

    #[test]
    fn test_budget_is_tiny() {
        assert!(Budget::test().measure <= 10_000);
    }
}
