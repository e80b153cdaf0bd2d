//! The `renuca-campaign-v1` spec: a hermetic text declaration of an
//! experiment grid, and its deterministic expansion into jobs.
//!
//! A spec is line-oriented. Blank lines and `#` comments are ignored; the
//! first significant line must be the schema id `renuca-campaign-v1`.
//! Directives (one per line, space-separated):
//!
//! ```text
//! renuca-campaign-v1
//! name fig3                      # required; campaign identity
//! config default                 # default | small <1|4|16> | mesh <cols> <rows>
//! budget warmup=500000 measure=300000   # optional; default: RENUCA_WARMUP/MEASURE
//! schemes S-NUCA R-NUCA Private Naive   # or: all | baselines
//! workloads 1..10                # inclusive range, or an explicit list
//! thresholds 3                   # CPT x% sweep axis; optional, default 3
//! set l2.size_bytes 131072       # config overrides (see OVERRIDES)
//! retries 2                      # attempts after the first failure
//! backoff-ms 100                 # deterministic retry backoff base
//! inject-fail 3 2                # fault injection: jobs of WL3 panic on
//!                                # their first 2 attempts (crash testing)
//! ```
//!
//! **Job-ID determinism.** The grid expands in a fixed nesting order —
//! thresholds, then schemes, then workloads, each in spec order — so a
//! job's `index` is a pure function of the spec. Its canonical key is
//! `x=<threshold>/scheme=<name>/wl=<id>` and its id is `j` followed by the
//! 16-hex-digit FNV-1a of `<campaign name>|<key>`: two shards, two hosts,
//! or two resumes of the same spec always agree on every id, which is what
//! makes journals mergeable.

use std::fmt::Write as _;

use cmp_sim::SystemConfig;
use experiments::Budget;
use renuca_core::Scheme;

use crate::hashes::fnv1a64;

/// Schema id on the first significant line of every campaign spec.
pub const SPEC_SCHEMA: &str = "renuca-campaign-v1";

/// The `set`-able configuration overrides, with their target fields.
/// Kept to knobs the paper's evaluation actually sweeps; anything else in
/// a `set` line is a parse error, not a silent no-op.
pub const OVERRIDES: [&str; 6] = [
    "l2.size_bytes",
    "l3_bank.size_bytes",
    "rob_entries",
    "naive_dir_latency",
    "prefetch.enabled",
    "intra_bank_rotation_writes",
];

/// A parsed, validated campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name (job-id namespace and report header).
    pub name: String,
    /// The machine every job simulates (base config + `set` overrides).
    pub config: SystemConfig,
    /// Human-readable description of the config line + overrides.
    pub config_desc: String,
    /// Instruction budget per job (spec line, else `RENUCA_*` env).
    pub budget: Budget,
    /// Placement schemes, in spec order.
    pub schemes: Vec<Scheme>,
    /// Workload mix ids (1-based), in spec order.
    pub workloads: Vec<usize>,
    /// CPT threshold sweep values (percent), in spec order.
    pub thresholds: Vec<f64>,
    /// Retry attempts after the first failure of a job.
    pub retries: u32,
    /// Base of the deterministic retry backoff (`backoff_ms << attempt`).
    pub backoff_ms: u64,
    /// Fault injection: `(workload, n)` makes jobs of that workload panic
    /// on their first `n` attempts in each process. Test-only plumbing for
    /// the crash/retry/quarantine paths; production specs omit it.
    pub inject_fail: Vec<(usize, u32)>,
    /// FNV-1a fingerprint of the raw spec text — journals and reports
    /// carry it so a resume against an edited spec is refused.
    pub fingerprint: u64,
}

/// One cell of the campaign grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in grid order (also the shard key: `index % shard_count`).
    pub index: usize,
    /// Placement scheme.
    pub scheme: Scheme,
    /// Workload mix id (1-based).
    pub workload: usize,
    /// CPT criticality threshold x%.
    pub threshold_pct: f64,
}

impl Job {
    /// Canonical key: `x=<threshold>/scheme=<name>/wl=<id>`.
    pub fn key(&self) -> String {
        format!(
            "x={}/scheme={}/wl={}",
            self.threshold_pct,
            self.scheme.name(),
            self.workload
        )
    }

    /// Deterministic job id: `j` + 16 hex digits of
    /// `fnv1a64("<campaign>|<key>")`.
    pub fn id(&self, campaign: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{campaign}|{}", self.key());
        format!("j{:016x}", fnv1a64(s.as_bytes()))
    }

    /// Relative path (under the campaign out dir) of this job's manifest.
    pub fn manifest_rel(&self, campaign: &str) -> String {
        format!("jobs/{}.json", self.id(campaign))
    }
}

impl CampaignSpec {
    /// Parse and validate a spec document.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());

        match lines.next() {
            Some((_, first)) if first == SPEC_SCHEMA => {}
            Some((n, first)) => {
                return Err(format!(
                    "line {n}: expected schema id {SPEC_SCHEMA:?}, found {first:?}"
                ))
            }
            None => return Err("empty spec".into()),
        }

        let mut name: Option<String> = None;
        let mut config = SystemConfig::default();
        let mut config_desc = String::from("default");
        let mut budget: Option<Budget> = None;
        let mut schemes: Option<Vec<Scheme>> = None;
        let mut workloads: Option<Vec<usize>> = None;
        let mut thresholds = vec![3.0];
        let mut retries = 2u32;
        let mut backoff_ms = 100u64;
        let mut inject_fail = Vec::new();
        let mut overrides: Vec<(String, String)> = Vec::new();

        for (n, line) in lines {
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap();
            let rest: Vec<&str> = words.collect();
            let err = |msg: &str| format!("line {n}: {msg}");
            match directive {
                "name" => {
                    if rest.len() != 1 {
                        return Err(err("name takes exactly one word"));
                    }
                    name = Some(rest[0].to_string());
                }
                "config" => {
                    let (cfg, desc) = parse_config(&rest).map_err(|e| err(&e))?;
                    config = cfg;
                    config_desc = desc;
                }
                "budget" => {
                    budget = Some(parse_budget(&rest).map_err(|e| err(&e))?);
                }
                "schemes" => {
                    schemes = Some(parse_schemes(&rest).map_err(|e| err(&e))?);
                }
                "workloads" => {
                    workloads = Some(parse_workloads(&rest).map_err(|e| err(&e))?);
                }
                "thresholds" => {
                    if rest.is_empty() {
                        return Err(err("thresholds needs at least one value"));
                    }
                    thresholds = rest
                        .iter()
                        .map(|w| {
                            w.parse::<f64>()
                                .ok()
                                .filter(|x| x.is_finite() && *x >= 0.0)
                                .ok_or_else(|| err(&format!("bad threshold {w:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "retries" => {
                    retries = parse_one(&rest).map_err(|e| err(&e))?;
                }
                "backoff-ms" => {
                    backoff_ms = parse_one(&rest).map_err(|e| err(&e))?;
                }
                "inject-fail" => {
                    if rest.len() != 2 {
                        return Err(err("inject-fail takes <workload> <attempts>"));
                    }
                    let wl = rest[0]
                        .parse::<usize>()
                        .map_err(|_| err("bad workload id"))?;
                    let k = rest[1]
                        .parse::<u32>()
                        .map_err(|_| err("bad attempt count"))?;
                    inject_fail.push((wl, k));
                }
                "set" => {
                    if rest.len() != 2 {
                        return Err(err("set takes <field> <value>"));
                    }
                    apply_override(&mut config, rest[0], rest[1]).map_err(|e| err(&e))?;
                    overrides.push((rest[0].to_string(), rest[1].to_string()));
                }
                other => return Err(err(&format!("unknown directive {other:?}"))),
            }
        }

        let name = name.ok_or("spec is missing a `name` line")?;
        let schemes = schemes.ok_or("spec is missing a `schemes` line")?;
        let workloads = workloads.ok_or("spec is missing a `workloads` line")?;
        for (desc, v) in overrides {
            config_desc.push_str(&format!(" {desc}={v}"));
        }
        config.check().map_err(|e| format!("invalid config: {e}"))?;

        Ok(CampaignSpec {
            name,
            config,
            config_desc,
            budget: budget.unwrap_or_else(Budget::from_env),
            schemes,
            workloads,
            thresholds,
            retries,
            backoff_ms,
            inject_fail,
            fingerprint: fnv1a64(text.as_bytes()),
        })
    }

    /// Expand the grid in its fixed nesting order (thresholds → schemes →
    /// workloads). `jobs()[i].index == i` always holds.
    pub fn jobs(&self) -> Vec<Job> {
        let mut out =
            Vec::with_capacity(self.thresholds.len() * self.schemes.len() * self.workloads.len());
        for &threshold_pct in &self.thresholds {
            for &scheme in &self.schemes {
                for &workload in &self.workloads {
                    out.push(Job {
                        index: out.len(),
                        scheme,
                        workload,
                        threshold_pct,
                    });
                }
            }
        }
        out
    }

    /// Number of attempts a job gets before quarantine.
    pub fn max_attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }

    /// Fault injection lookup: how many leading attempts of `workload`'s
    /// jobs must panic.
    pub fn injected_failures(&self, workload: usize) -> u32 {
        self.inject_fail
            .iter()
            .find(|(wl, _)| *wl == workload)
            .map_or(0, |(_, k)| *k)
    }
}

fn parse_one<T: std::str::FromStr>(rest: &[&str]) -> Result<T, String> {
    if rest.len() != 1 {
        return Err("takes exactly one value".into());
    }
    rest[0]
        .parse::<T>()
        .map_err(|_| format!("bad value {:?}", rest[0]))
}

fn parse_config(rest: &[&str]) -> Result<(SystemConfig, String), String> {
    match rest {
        ["default"] => Ok((SystemConfig::default(), "default".into())),
        ["small", n] => {
            let n: usize = n.parse().map_err(|_| format!("bad core count {n:?}"))?;
            if !matches!(n, 1 | 4 | 16) {
                return Err("small supports 1, 4 or 16 cores".into());
            }
            Ok((SystemConfig::small(n), format!("small {n}")))
        }
        ["mesh", c, r] => {
            let cols: usize = c.parse().map_err(|_| format!("bad mesh cols {c:?}"))?;
            let rows: usize = r.parse().map_err(|_| format!("bad mesh rows {r:?}"))?;
            if cols == 0 || rows == 0 {
                return Err("mesh needs at least one tile".into());
            }
            if cols.checked_mul(rows).is_none() {
                return Err(format!("mesh {cols}x{rows} has too many tiles"));
            }
            Ok((
                SystemConfig::mesh(cols, rows),
                format!("mesh {cols} {rows}"),
            ))
        }
        _ => Err("config takes: default | small <n> | mesh <cols> <rows>".into()),
    }
}

fn parse_budget(rest: &[&str]) -> Result<Budget, String> {
    let mut warmup = None;
    let mut measure = None;
    for w in rest {
        if let Some(v) = w.strip_prefix("warmup=") {
            warmup = Some(v.parse::<u64>().map_err(|_| format!("bad warmup {v:?}"))?);
        } else if let Some(v) = w.strip_prefix("measure=") {
            measure = Some(v.parse::<u64>().map_err(|_| format!("bad measure {v:?}"))?);
        } else {
            return Err(format!("budget takes warmup=<n> measure=<n>, got {w:?}"));
        }
    }
    match (warmup, measure) {
        (Some(warmup), Some(measure)) if measure > 0 => Ok(Budget { warmup, measure }),
        (Some(_), Some(_)) => Err("measure must be positive".into()),
        _ => Err("budget needs both warmup= and measure=".into()),
    }
}

fn parse_schemes(rest: &[&str]) -> Result<Vec<Scheme>, String> {
    let out: Vec<Scheme> = match rest {
        [] => return Err("schemes needs at least one name".into()),
        ["all"] => Scheme::ALL.to_vec(),
        ["baselines"] => Scheme::BASELINES.to_vec(),
        names => names
            .iter()
            .map(|w| scheme_by_name(w))
            .collect::<Result<_, _>>()?,
    };
    let mut seen = Vec::new();
    for s in &out {
        if seen.contains(s) {
            return Err(format!("duplicate scheme {}", s.name()));
        }
        seen.push(*s);
    }
    Ok(out)
}

/// Inverse of [`Scheme::name`] ([`Scheme::from_name`]: case and hyphens
/// are ignored).
pub fn scheme_by_name(name: &str) -> Result<Scheme, String> {
    Scheme::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        format!("unknown scheme {name:?} (known: {known:?})")
    })
}

fn parse_workloads(rest: &[&str]) -> Result<Vec<usize>, String> {
    let valid = |id: usize| {
        if workloads::is_workload_id(id) {
            Ok(id)
        } else {
            Err(format!(
                "workload {id} out of range (1..={} or write-burst ids {}..={})",
                workloads::N_WORKLOADS,
                workloads::WBURST_ID_BASE + 1,
                workloads::TRICKLE_ID
            ))
        }
    };
    let mut out = Vec::new();
    for w in rest {
        if let Some((a, b)) = w.split_once("..") {
            let a: usize = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
            let b: usize = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
            if a == 0 || b < a {
                return Err(format!("bad workload range {w:?}"));
            }
            // Bound the range by a valid end before expanding it.
            valid(b)?;
            out.extend(a..=b);
        } else {
            let id: usize = w.parse().map_err(|_| format!("bad workload id {w:?}"))?;
            if id == 0 {
                return Err("workload ids are 1-based".into());
            }
            out.push(id);
        }
    }
    for id in &out {
        valid(*id)?;
    }
    if out.is_empty() {
        return Err("workloads needs at least one id".into());
    }
    let mut seen = Vec::new();
    for id in &out {
        if seen.contains(id) {
            return Err(format!("duplicate workload {id}"));
        }
        seen.push(*id);
    }
    Ok(out)
}

fn apply_override(cfg: &mut SystemConfig, field: &str, value: &str) -> Result<(), String> {
    let num = || {
        value
            .parse::<u64>()
            .map_err(|_| format!("bad value {value:?} for {field}"))
    };
    match field {
        "l2.size_bytes" => cfg.l2.size_bytes = num()?,
        "l3_bank.size_bytes" => cfg.l3_bank.size_bytes = num()?,
        "rob_entries" => cfg.rob_entries = num()? as usize,
        "naive_dir_latency" => cfg.naive_dir_latency = num()?,
        "prefetch.enabled" => {
            cfg.prefetch.enabled = match value {
                "0" => false,
                "1" => true,
                _ => return Err(format!("prefetch.enabled takes 0 or 1, got {value:?}")),
            }
        }
        "intra_bank_rotation_writes" => {
            let v = num()?;
            cfg.intra_bank_rotation_writes = if v == 0 { None } else { Some(v) };
        }
        _ => {
            return Err(format!(
                "unknown override {field:?} (supported: {OVERRIDES:?})"
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::SimRng;

    const TINY: &str = "\
renuca-campaign-v1
name tiny           # comment after directive
config small 4

schemes S-NUCA Re-NUCA
workloads 1..3
budget warmup=100 measure=500
thresholds 3 25
retries 1
";

    #[test]
    fn parses_and_expands_in_grid_order() {
        let spec = CampaignSpec::parse(TINY).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.schemes, vec![Scheme::SNuca, Scheme::ReNuca]);
        assert_eq!(spec.workloads, vec![1, 2, 3]);
        assert_eq!(spec.thresholds, vec![3.0, 25.0]);
        assert_eq!(spec.retries, 1);
        assert_eq!(
            spec.budget,
            Budget {
                warmup: 100,
                measure: 500
            }
        );
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
        assert_eq!(jobs[0].key(), "x=3/scheme=S-NUCA/wl=1");
        assert_eq!(jobs[3].key(), "x=3/scheme=Re-NUCA/wl=1");
        assert_eq!(jobs[6].key(), "x=25/scheme=S-NUCA/wl=1");
    }

    #[test]
    fn job_ids_are_stable_and_distinct() {
        let spec = CampaignSpec::parse(TINY).unwrap();
        let jobs = spec.jobs();
        let ids: Vec<String> = jobs.iter().map(|j| j.id(&spec.name)).collect();
        let again: Vec<String> = spec.jobs().iter().map(|j| j.id(&spec.name)).collect();
        assert_eq!(ids, again, "ids are a pure function of the spec");
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "no id collisions");
        for id in &ids {
            assert!(id.len() == 17 && id.starts_with('j'), "{id}");
        }
    }

    #[test]
    fn fingerprint_tracks_text() {
        let a = CampaignSpec::parse(TINY).unwrap();
        let b = CampaignSpec::parse(&TINY.replace("retries 1", "retries 3")).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.fingerprint,
            CampaignSpec::parse(TINY).unwrap().fingerprint
        );
    }

    #[test]
    fn overrides_apply_and_unknowns_are_errors() {
        let spec = CampaignSpec::parse(
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\n\
             set l2.size_bytes 131072\nset rob_entries 168\nset prefetch.enabled 0\n",
        )
        .unwrap();
        assert_eq!(spec.config.l2.size_bytes, 131072);
        assert_eq!(spec.config.rob_entries, 168);
        assert!(!spec.config.prefetch.enabled);
        assert!(spec.config_desc.contains("l2.size_bytes=131072"));

        for bad in [
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\nset l1.size 1\n",
            "renuca-campaign-v1\nname o\nschemes all\nworkloads 1\nset prefetch.enabled yes\n",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "renuca-campaign-v2\nname x\nschemes all\nworkloads 1\n",
            "renuca-campaign-v1\nschemes all\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all\n",
            "renuca-campaign-v1\nname x\nschemes Bogus\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all all\nworkloads 1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 0\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 99\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1 1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nbudget warmup=1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nfrobnicate 7\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nthresholds -1\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nset l2.size_bytes 1000\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\nset rob_entries 0\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1\n\
             config mesh 4294967296 4294967296\n",
            "renuca-campaign-v1\nname x\nschemes all\nworkloads 1..18446744073709551615\n",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Apply one random line-level or byte-level mutation to a spec text:
    /// drop, duplicate or swap lines, replace digit runs with boundary
    /// values, or truncate at an arbitrary byte.
    fn mutate(text: &str, rng: &mut SimRng) -> String {
        const NUMBERS: [&str; 4] = ["0", "1", "1000", "18446744073709551615"];
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.is_empty() {
            return String::new();
        }
        let i = rng.gen_range_usize(0..lines.len());
        match rng.gen_bounded(5) {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => {
                let j = rng.gen_range_usize(0..lines.len());
                lines.swap(i, j);
            }
            3 => {
                let mut out = String::new();
                let mut chars = lines[i].chars().peekable();
                while let Some(c) = chars.next() {
                    if !c.is_ascii_digit() {
                        out.push(c);
                        continue;
                    }
                    let mut run = c.to_string();
                    while let Some(d) = chars.next_if(char::is_ascii_digit) {
                        run.push(d);
                    }
                    if rng.gen_bool(0.5) {
                        run = NUMBERS[rng.gen_range_usize(0..NUMBERS.len())].to_string();
                    }
                    out.push_str(&run);
                }
                lines[i] = out;
            }
            _ => {
                let joined = lines.join("\n");
                let cut = rng.gen_range_usize(0..joined.len() + 1);
                return String::from_utf8_lossy(&joined.as_bytes()[..cut]).into_owned();
            }
        }
        lines.join("\n")
    }

    /// Every directive the committed specs leave out, so mutations also
    /// reach the `set`, `mesh`, `budget` and retry paths.
    const EVERY_DIRECTIVE: &str = "\
renuca-campaign-v1
name every
config mesh 3 2
budget warmup=100 measure=500
schemes S-NUCA Re-NUCA
workloads 1 2..4 101
thresholds 3 25
set l2.size_bytes 131072
set l3_bank.size_bytes 1048576
set rob_entries 168
set naive_dir_latency 150
set prefetch.enabled 1
set intra_bank_rotation_writes 1000
retries 1
backoff-ms 10
inject-fail 3 1
";

    #[test]
    fn mutated_committed_specs_never_panic() {
        const SPECS: [&str; 6] = [
            EVERY_DIRECTIVE,
            include_str!("../../../campaigns/fig3.campaign"),
            include_str!("../../../campaigns/compress.campaign"),
            include_str!("../../../campaigns/headtohead.campaign"),
            include_str!("../../../campaigns/wburst.campaign"),
            include_str!("../../../campaigns/xpct.campaign"),
        ];
        let mut rng = SimRng::seed_from_u64(0x5bec_f022);
        let (mut ok, mut err) = (0, 0);
        for trial in 0..4000 {
            let mut text = SPECS[trial % SPECS.len()].to_string();
            for _ in 0..rng.gen_range_usize(1..4) {
                text = mutate(&text, &mut rng);
            }
            match std::panic::catch_unwind(|| CampaignSpec::parse(&text)) {
                Ok(Ok(_)) => ok += 1,
                Ok(Err(_)) => err += 1,
                Err(_) => panic!("trial {trial}: parse panicked on {text:?}"),
            }
        }
        assert!(ok > 0 && err > 0, "fuzz is degenerate: {ok} ok, {err} err");
    }

    #[test]
    fn scheme_roundtrip() {
        for s in Scheme::ALL {
            assert_eq!(scheme_by_name(s.name()).unwrap(), s);
        }
        assert_eq!(scheme_by_name("s-nuca").unwrap(), Scheme::SNuca);
        assert!(scheme_by_name("Bogus").is_err());
    }
}
