//! The parameterized policy-construction API.
//!
//! [`PolicySpec`] is the single policy enum: every policy the simulator
//! ships is named in one [`registry`](crate::spec::SpecRegistry::spec_registry),
//! parameterized specs round-trip through strings
//! (`overcommit:factor=0.8`, `conservative:quantum=4096`), and
//! [`build`](PolicySpec::build) resolves a spec into the boxed
//! [`MemoryPolicy`] that [`SimBuilder::policy`] installs.
//!
//! # Grammar
//!
//! ```text
//! spec   := name [ ":" param ( "," param )* ]
//! param  := key "=" value
//! ```
//!
//! Bare names take each parameter's default. Lists of specs (the CLI's
//! `--policies`) are comma-separated; a comma followed by a `key=value`
//! token without a `:` continues the previous spec's parameter list,
//! so both separators coexist unambiguously. The grammar, the list
//! continuation, and the error vocabulary all come from the shared
//! [`SpecRegistry`] trait.
//!
//! [`SimBuilder::policy`]: crate::sim::SimBuilder::policy

use crate::error::CoreError;
use crate::policy::conservative::ConservativeGrowth;
use crate::policy::overcommit::Overcommit;
use crate::policy::predictive::Predictive;
use crate::sim::hooks::{Baseline, DynamicAlloc, MemoryPolicy, StaticAlloc};
use crate::spec::{SpecInfo, SpecRegistry};

/// A fully-parameterized policy selection: which allocation scheme a
/// simulation runs, plus its parameters. Parses from and prints to the
/// spec grammar in the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicySpec {
    /// Exclusive node memory, no disaggregation.
    Baseline,
    /// Disaggregated memory, fixed allocation at the requested size.
    Static,
    /// Disaggregated memory, allocation follows actual usage.
    Dynamic,
    /// Allocations sized from the class's historical peak.
    Predictive {
        /// Whether the class-history lookup is enabled; `false`
        /// degenerates to [`PolicySpec::Static`].
        history: bool,
    },
    /// Admission at `factor × request`, backed by the OOM ladder.
    Overcommit {
        /// Scale applied to the request at admission (positive, finite;
        /// `1.0` degenerates to [`PolicySpec::Dynamic`]).
        factor: f64,
    },
    /// Dynamic allocation resized in fixed quanta.
    Conservative {
        /// Resize granularity in MB (≥ 1; `1` degenerates to
        /// [`PolicySpec::Dynamic`]).
        quantum_mb: u64,
    },
}

/// Every policy the simulator ships, in presentation order: the
/// paper's three schemes first, then the extensions.
const REGISTRY: [SpecInfo; 6] = [
    SpecInfo {
        name: "baseline",
        params: "",
        default_spec: "baseline",
        description: "exclusive node memory, no disaggregation",
    },
    SpecInfo {
        name: "static",
        params: "",
        default_spec: "static",
        description: "fixed disaggregated allocation at the requested size",
    },
    SpecInfo {
        name: "dynamic",
        params: "",
        default_spec: "dynamic",
        description: "allocation tracks actual usage (Monitor/Decider/Actuator loop)",
    },
    SpecInfo {
        name: "predictive",
        params: "history=on|off",
        default_spec: "predictive:history=on",
        description: "sizes allocations from the class's historical peak, growth-only Decider",
    },
    SpecInfo {
        name: "overcommit",
        params: "factor=<float>",
        default_spec: "overcommit:factor=0.8",
        description: "admits jobs at factor*request; the OOM ladder absorbs lost bets",
    },
    SpecInfo {
        name: "conservative",
        params: "quantum=<MB>",
        default_spec: "conservative:quantum=4096",
        description: "grows/shrinks in quantum-MB steps to cut Actuator round-trips",
    },
];

impl SpecRegistry for PolicySpec {
    const KIND: &'static str = "policy";
    const KIND_PLURAL: &'static str = "policies";

    fn spec_registry() -> &'static [SpecInfo] {
        &REGISTRY
    }
}

impl PolicySpec {
    /// One spec per registry entry, each at its default parameters —
    /// the six-column sweep the experiments iterate.
    pub fn all_default() -> Vec<PolicySpec> {
        Self::registry_defaults()
    }

    /// Spec name (the part before `:`).
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Baseline => "baseline",
            PolicySpec::Static => "static",
            PolicySpec::Dynamic => "dynamic",
            PolicySpec::Predictive { .. } => "predictive",
            PolicySpec::Overcommit { .. } => "overcommit",
            PolicySpec::Conservative { .. } => "conservative",
        }
    }

    /// Whether the policy uses the disaggregated memory pool.
    pub fn disaggregated(self) -> bool {
        !matches!(self, PolicySpec::Baseline)
    }

    /// Display name for chart legends.
    pub fn label(self) -> String {
        match self {
            PolicySpec::Baseline => "Baseline (no disaggregated memory)".into(),
            PolicySpec::Static => "Static disaggregated memory".into(),
            PolicySpec::Dynamic => "Dynamic disaggregated memory".into(),
            PolicySpec::Predictive { history: true } => "Predictive (class-history sizing)".into(),
            PolicySpec::Predictive { history: false } => "Predictive (history off)".into(),
            PolicySpec::Overcommit { factor } => format!("Overcommit (factor {factor})"),
            PolicySpec::Conservative { quantum_mb } => {
                format!("Conservative growth ({quantum_mb} MB quanta)")
            }
        }
    }

    /// Resolve the spec into the behavior object the simulation runs.
    /// This is the only place a name maps to behavior — the runner
    /// itself never branches on the spec.
    pub fn build(self) -> Box<dyn MemoryPolicy> {
        match self {
            PolicySpec::Baseline => Box::new(Baseline),
            PolicySpec::Static => Box::new(StaticAlloc),
            PolicySpec::Dynamic => Box::new(DynamicAlloc),
            PolicySpec::Predictive { history } => Box::new(Predictive { history }),
            PolicySpec::Overcommit { factor } => Box::new(Overcommit { factor }),
            PolicySpec::Conservative { quantum_mb } => Box::new(ConservativeGrowth { quantum_mb }),
        }
    }

    /// Parse a comma-separated spec list (`dynamic,overcommit:factor=0.8`).
    /// A `key=value` token without a `:` continues the previous spec's
    /// parameter list.
    ///
    /// # Errors
    /// Returns the first spec's parse error, or an error on an empty
    /// list.
    pub fn parse_list(s: &str) -> Result<Vec<PolicySpec>, CoreError> {
        Self::parse_spec_list(s)
    }
}

impl std::str::FromStr for PolicySpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, CoreError> {
        let (name, params) = Self::split_spec(s);
        match name {
            "baseline" => Self::reject_params(name, params).map(|()| PolicySpec::Baseline),
            "static" => Self::reject_params(name, params).map(|()| PolicySpec::Static),
            "dynamic" => Self::reject_params(name, params).map(|()| PolicySpec::Dynamic),
            "predictive" => {
                let mut history = true;
                if let Some(p) = params {
                    for (k, v) in Self::split_params(name, p)? {
                        match (k, v) {
                            ("history", "on" | "true") => history = true,
                            ("history", "off" | "false") => history = false,
                            ("history", other) => {
                                return Err(CoreError::invalid_config(format!(
                                    "predictive: history must be on|off, got '{other}'"
                                )))
                            }
                            (key, _) => {
                                return Err(CoreError::invalid_config(format!(
                                "predictive: unknown parameter '{key}' (expected history=on|off)"
                            )))
                            }
                        }
                    }
                }
                Ok(PolicySpec::Predictive { history })
            }
            "overcommit" => {
                let mut factor = 0.8f64;
                if let Some(p) = params {
                    for (k, v) in Self::split_params(name, p)? {
                        match k {
                            "factor" => {
                                factor = v.parse().map_err(|_| {
                                    CoreError::invalid_config(format!(
                                        "overcommit: factor must be a number, got '{v}'"
                                    ))
                                })?;
                            }
                            key => {
                                return Err(CoreError::invalid_config(format!(
                                "overcommit: unknown parameter '{key}' (expected factor=<float>)"
                            )))
                            }
                        }
                    }
                }
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(CoreError::invalid_config(format!(
                        "overcommit: factor must be positive and finite, got {factor}"
                    )));
                }
                Ok(PolicySpec::Overcommit { factor })
            }
            "conservative" => {
                let mut quantum_mb = 4096u64;
                if let Some(p) = params {
                    for (k, v) in Self::split_params(name, p)? {
                        match k {
                            "quantum" => {
                                quantum_mb = v.parse().map_err(|_| {
                                    CoreError::invalid_config(format!(
                                        "conservative: quantum must be an integer MB count, got '{v}'"
                                    ))
                                })?;
                            }
                            key => {
                                return Err(CoreError::invalid_config(format!(
                                "conservative: unknown parameter '{key}' (expected quantum=<MB>)"
                            )))
                            }
                        }
                    }
                }
                if quantum_mb == 0 {
                    return Err(CoreError::invalid_config(
                        "conservative: quantum must be at least 1 MB".to_string(),
                    ));
                }
                Ok(PolicySpec::Conservative { quantum_mb })
            }
            other => Err(Self::unknown_name(other)),
        }
    }
}

impl std::fmt::Display for PolicySpec {
    /// Canonical spec string; parameterized variants always print their
    /// parameters, so `parse ∘ to_string` is the identity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PolicySpec::Baseline => f.write_str("baseline"),
            PolicySpec::Static => f.write_str("static"),
            PolicySpec::Dynamic => f.write_str("dynamic"),
            PolicySpec::Predictive { history } => {
                write!(
                    f,
                    "predictive:history={}",
                    if history { "on" } else { "off" }
                )
            }
            PolicySpec::Overcommit { factor } => write!(f, "overcommit:factor={factor}"),
            PolicySpec::Conservative { quantum_mb } => {
                write!(f, "conservative:quantum={quantum_mb}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_take_defaults() {
        assert_eq!(
            "baseline".parse::<PolicySpec>().unwrap(),
            PolicySpec::Baseline
        );
        assert_eq!(
            "predictive".parse::<PolicySpec>().unwrap(),
            PolicySpec::Predictive { history: true }
        );
        assert_eq!(
            "overcommit".parse::<PolicySpec>().unwrap(),
            PolicySpec::Overcommit { factor: 0.8 }
        );
        assert_eq!(
            "conservative".parse::<PolicySpec>().unwrap(),
            PolicySpec::Conservative { quantum_mb: 4096 }
        );
    }

    #[test]
    fn parameterized_specs_parse() {
        assert_eq!(
            "overcommit:factor=0.65".parse::<PolicySpec>().unwrap(),
            PolicySpec::Overcommit { factor: 0.65 }
        );
        assert_eq!(
            "conservative:quantum=512".parse::<PolicySpec>().unwrap(),
            PolicySpec::Conservative { quantum_mb: 512 }
        );
        assert_eq!(
            "predictive:history=off".parse::<PolicySpec>().unwrap(),
            PolicySpec::Predictive { history: false }
        );
    }

    #[test]
    fn display_round_trips() {
        for spec in PolicySpec::all_default() {
            assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
        }
        let odd = PolicySpec::Overcommit { factor: 0.725 };
        assert_eq!(odd.to_string(), "overcommit:factor=0.725");
        assert_eq!(odd.to_string().parse::<PolicySpec>().unwrap(), odd);
    }

    #[test]
    fn bad_specs_are_rejected_with_the_registry() {
        let err = "greedy".parse::<PolicySpec>().unwrap_err().to_string();
        assert!(err.contains("unknown policy 'greedy'"), "{err}");
        for info in PolicySpec::spec_registry() {
            assert!(err.contains(info.name), "{err} must list {}", info.name);
        }
        assert!("overcommit:factor=nope".parse::<PolicySpec>().is_err());
        assert!("overcommit:factor=0".parse::<PolicySpec>().is_err());
        assert!("overcommit:factor=-1".parse::<PolicySpec>().is_err());
        assert!("overcommit:factor=inf".parse::<PolicySpec>().is_err());
        assert!("conservative:quantum=0".parse::<PolicySpec>().is_err());
        assert!("conservative:quantum=2.5".parse::<PolicySpec>().is_err());
        assert!("predictive:history=maybe".parse::<PolicySpec>().is_err());
        assert!("dynamic:factor=2".parse::<PolicySpec>().is_err());
        assert!("overcommit:quantum=4".parse::<PolicySpec>().is_err());
        assert!("overcommit:factor".parse::<PolicySpec>().is_err());
        // Names are case-sensitive: the CLI passes values verbatim.
        assert!("Dynamic".parse::<PolicySpec>().is_err());
        assert!("".parse::<PolicySpec>().is_err());
    }

    #[test]
    fn repeated_parameter_is_rejected() {
        let err = PolicySpec::parse_list("overcommit:factor=0.5,factor=2")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("policy 'overcommit': parameter 'factor' given twice"),
            "{err}"
        );
    }

    #[test]
    fn list_parsing_handles_parameter_commas() {
        let specs = PolicySpec::parse_list(
            "dynamic, overcommit:factor=0.8, conservative:quantum=2048,predictive:history=off",
        )
        .unwrap();
        assert_eq!(
            specs,
            vec![
                PolicySpec::Dynamic,
                PolicySpec::Overcommit { factor: 0.8 },
                PolicySpec::Conservative { quantum_mb: 2048 },
                PolicySpec::Predictive { history: false },
            ]
        );
        assert!(PolicySpec::parse_list("").is_err());
        assert!(PolicySpec::parse_list("dynamic,greedy").is_err());
    }

    #[test]
    fn registry_and_defaults_agree() {
        let all = PolicySpec::all_default();
        assert_eq!(all.len(), PolicySpec::spec_registry().len());
        assert_eq!(all.len(), 6);
        for (spec, info) in all.iter().zip(PolicySpec::spec_registry()) {
            assert_eq!(spec.name(), info.name);
            assert_eq!(spec.to_string(), info.default_spec);
        }
        // The paper's three lead: fig5 normalises by the first three.
        assert_eq!(all[0], PolicySpec::Baseline);
        assert_eq!(all[1], PolicySpec::Static);
        assert_eq!(all[2], PolicySpec::Dynamic);
    }

    #[test]
    fn built_policies_report_their_names() {
        for spec in PolicySpec::all_default() {
            assert_eq!(spec.build().name(), spec.name());
        }
        assert!(!PolicySpec::Baseline.disaggregated());
        assert!(PolicySpec::Dynamic.disaggregated());
        assert!(PolicySpec::Baseline.label().contains("Baseline"));
    }
}
