//! The fabric topology layer: how nodes partition into racks and what
//! borrowing across rack boundaries costs.
//!
//! [`TopologySpec`] is the string-parameterized construction API in the
//! style of [`PolicySpec`](crate::policy::PolicySpec) — both speak the
//! shared [`SpecRegistry`] grammar: every
//! shipped topology is named in one [`registry`](TopologySpec::registry),
//! parameterized specs round-trip through strings
//! (`racks:size=16,cross_cap=0.5`), and [`build`](TopologySpec::build)
//! resolves a spec into the [`Topology`] a [`Cluster`] carries.
//!
//! # Grammar
//!
//! ```text
//! spec   := name [ ":" param ( "," param )* ]
//! param  := key "=" value
//! ```
//!
//! * `flat` — one fabric domain holding every node: any node borrows
//!   from any other at uniform cost. Bit-identical to the pre-topology
//!   simulator by construction (the rack index machinery is never
//!   built and every lender scan takes the original code path).
//! * `racks:size=<N>[,cross_cap=<frac>]` — nodes partition into racks
//!   of `N` consecutive ids. Lender iteration prefers intra-rack
//!   lenders (most free first), then crosses rack boundaries; each
//!   borrow plan may take at most `floor(cross_cap × remote_need)` MB
//!   from other racks (`cross_cap=1` leaves the amount uncapped but
//!   keeps the locality-aware order; `cross_cap=0` confines borrowing
//!   to the home rack). Cross-rack megabytes are priced at
//!   [`CROSS_RACK_WEIGHT`]× in the effective remote fraction fed to
//!   the contention model.
//!
//! [`Cluster`]: crate::cluster::Cluster

use crate::error::CoreError;
use crate::spec::{SpecInfo, SpecRegistry};

/// Price multiplier applied to cross-rack borrowed megabytes when
/// computing the effective remote fraction
/// ([`Cluster::priced_remote_fraction`]): a cross-rack slice traverses
/// two fabric hops where an intra-rack slice traverses one.
///
/// [`Cluster::priced_remote_fraction`]: crate::cluster::Cluster::priced_remote_fraction
pub const CROSS_RACK_WEIGHT: f64 = 2.0;

/// A fully-parameterized topology selection: how the cluster's nodes
/// partition into fabric domains. Parses from and prints to the spec
/// grammar in the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum TopologySpec {
    /// One fabric domain holding every node (the pre-topology model).
    #[default]
    Flat,
    /// Racks of `size` consecutive node ids with locality-aware lending.
    Racks {
        /// Nodes per rack (≥ 1; the last rack may be smaller).
        size: u32,
        /// Cap on cross-rack borrowing as a fraction of each borrow
        /// plan's remote need, in `[0, 1]`.
        cross_cap: f64,
    },
}

/// Every topology the simulator ships, in presentation order.
const REGISTRY: [SpecInfo; 2] = [
    SpecInfo {
        name: "flat",
        params: "",
        default_spec: "flat",
        description: "one fabric domain, uniform borrowing cost (the paper's model)",
    },
    SpecInfo {
        name: "racks",
        params: "size=<N>,cross_cap=<frac>",
        default_spec: "racks:size=16,cross_cap=1",
        description: "racks of N nodes; intra-rack lenders preferred, cross-rack borrowing capped",
    },
];

impl SpecRegistry for TopologySpec {
    const KIND: &'static str = "topology";
    const KIND_PLURAL: &'static str = "topologies";

    fn spec_registry() -> &'static [SpecInfo] {
        &REGISTRY
    }
}

impl TopologySpec {
    /// Every shipped topology: name, parameter grammar, defaults, and a
    /// one-line description. The order is the presentation order used
    /// by sweeps and charts.
    pub fn registry() -> &'static [SpecInfo] {
        Self::spec_registry()
    }

    /// One spec per registry entry, each at its default parameters.
    pub fn all_default() -> Vec<TopologySpec> {
        Self::registry_defaults()
    }

    /// The comma-separated registry names, for self-documenting parse
    /// errors.
    pub fn known_names() -> String {
        Self::registry_names()
    }

    /// Spec name (the part before `:`).
    pub fn name(self) -> &'static str {
        match self {
            TopologySpec::Flat => "flat",
            TopologySpec::Racks { .. } => "racks",
        }
    }

    /// Display name for chart legends and sweep tables.
    pub fn label(self) -> String {
        match self {
            TopologySpec::Flat => "Flat fabric (uniform borrowing)".into(),
            TopologySpec::Racks { size, cross_cap } => {
                format!("Racks of {size} (cross cap {cross_cap})")
            }
        }
    }

    /// Validate the parameters, for configs built directly rather than
    /// parsed.
    ///
    /// # Errors
    /// Returns the first violated parameter bound.
    pub fn validate(self) -> Result<(), CoreError> {
        match self {
            TopologySpec::Flat => Ok(()),
            TopologySpec::Racks { size, cross_cap } => {
                if size == 0 {
                    return Err(CoreError::invalid_config(
                        "racks: size must be at least 1 node".to_string(),
                    ));
                }
                if !(cross_cap.is_finite() && (0.0..=1.0).contains(&cross_cap)) {
                    return Err(CoreError::invalid_config(format!(
                        "racks: cross_cap must be within [0, 1], got {cross_cap}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Resolve the spec into the node→rack partition for an `n`-node
    /// cluster. This is the only place a spec maps to structure.
    pub fn build(self, nodes: u32) -> Topology {
        match self {
            TopologySpec::Flat => Topology {
                spec: self,
                rack_of: Vec::new(),
                racks: 1,
            },
            TopologySpec::Racks { size, .. } => {
                let rack_of: Vec<u32> = (0..nodes).map(|i| i / size).collect();
                let racks = rack_of.last().map_or(1, |&last| last + 1);
                Topology {
                    spec: self,
                    rack_of,
                    racks,
                }
            }
        }
    }

    /// Parse a comma-separated spec list (`flat,racks:size=16`). A
    /// `key=value` token without a `:` continues the previous spec's
    /// parameter list.
    ///
    /// # Errors
    /// Returns the first spec's parse error, or an error on an empty
    /// list.
    pub fn parse_list(s: &str) -> Result<Vec<TopologySpec>, CoreError> {
        Self::parse_spec_list(s)
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, CoreError> {
        let (name, params) = Self::split_spec(s);
        match name {
            "flat" => Self::reject_params(name, params).map(|()| TopologySpec::Flat),
            "racks" => {
                let mut size = 16u32;
                let mut cross_cap = 1.0f64;
                if let Some(p) = params {
                    for (k, v) in Self::split_params(name, p)? {
                        match k {
                            "size" => {
                                size = v.parse().map_err(|_| {
                                    CoreError::invalid_config(format!(
                                        "racks: size must be an integer node count, got '{v}'"
                                    ))
                                })?;
                            }
                            "cross_cap" => {
                                cross_cap = v.parse().map_err(|_| {
                                    CoreError::invalid_config(format!(
                                        "racks: cross_cap must be a number, got '{v}'"
                                    ))
                                })?;
                            }
                            key => {
                                return Err(CoreError::invalid_config(format!(
                                    "racks: unknown parameter '{key}' \
                                     (expected size=<N>,cross_cap=<frac>)"
                                )))
                            }
                        }
                    }
                }
                let spec = TopologySpec::Racks { size, cross_cap };
                spec.validate()?;
                Ok(spec)
            }
            other => Err(Self::unknown_name(other)),
        }
    }
}

impl std::fmt::Display for TopologySpec {
    /// Canonical spec string; parameterized variants always print their
    /// parameters, so `parse ∘ to_string` is the identity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopologySpec::Flat => f.write_str("flat"),
            TopologySpec::Racks { size, cross_cap } => {
                write!(f, "racks:size={size},cross_cap={cross_cap}")
            }
        }
    }
}

/// The built node→rack partition a [`Cluster`](crate::cluster::Cluster)
/// carries. Flat topologies hold no per-node table at all, so asking a
/// flat topology for a rack is free.
#[derive(Clone, Debug)]
pub struct Topology {
    spec: TopologySpec,
    /// Rack of each node; empty for flat (every node is rack 0).
    rack_of: Vec<u32>,
    racks: u32,
}

impl Topology {
    /// The spec this topology was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Whether this is the flat (single-domain) topology.
    #[inline]
    pub fn is_flat(&self) -> bool {
        matches!(self.spec, TopologySpec::Flat)
    }

    /// Number of racks (1 for flat).
    pub fn racks(&self) -> u32 {
        self.racks
    }

    /// Rack of a node (0 for flat).
    #[inline]
    pub fn rack_of(&self, node: super::NodeId) -> u32 {
        self.rack_of.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Maximum MB a borrow plan with `remote_need` MB of remote demand
    /// may take from other racks: `floor(cross_cap × remote_need)`
    /// (`remote_need` itself for flat).
    pub fn cross_budget(&self, remote_need: u64) -> u64 {
        match self.spec {
            TopologySpec::Flat => remote_need,
            TopologySpec::Racks { cross_cap, .. } => (cross_cap * remote_need as f64) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeId;

    #[test]
    fn bare_names_take_defaults() {
        assert_eq!("flat".parse::<TopologySpec>().unwrap(), TopologySpec::Flat);
        assert_eq!(
            "racks".parse::<TopologySpec>().unwrap(),
            TopologySpec::Racks {
                size: 16,
                cross_cap: 1.0
            }
        );
    }

    #[test]
    fn parameterized_specs_parse() {
        assert_eq!(
            "racks:size=32".parse::<TopologySpec>().unwrap(),
            TopologySpec::Racks {
                size: 32,
                cross_cap: 1.0
            }
        );
        assert_eq!(
            "racks:size=8,cross_cap=0.25"
                .parse::<TopologySpec>()
                .unwrap(),
            TopologySpec::Racks {
                size: 8,
                cross_cap: 0.25
            }
        );
        assert_eq!(
            "racks:cross_cap=0".parse::<TopologySpec>().unwrap(),
            TopologySpec::Racks {
                size: 16,
                cross_cap: 0.0
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for spec in TopologySpec::all_default() {
            assert_eq!(spec.to_string().parse::<TopologySpec>().unwrap(), spec);
        }
        let odd = TopologySpec::Racks {
            size: 24,
            cross_cap: 0.125,
        };
        assert_eq!(odd.to_string(), "racks:size=24,cross_cap=0.125");
        assert_eq!(odd.to_string().parse::<TopologySpec>().unwrap(), odd);
    }

    #[test]
    fn bad_specs_are_rejected_with_the_registry() {
        let err = "torus".parse::<TopologySpec>().unwrap_err().to_string();
        assert!(err.contains("unknown topology 'torus'"), "{err}");
        for info in TopologySpec::registry() {
            assert!(err.contains(info.name), "{err} must list {}", info.name);
        }
        assert!("flat:size=4".parse::<TopologySpec>().is_err());
        assert!("racks:size=0".parse::<TopologySpec>().is_err());
        assert!("racks:size=nope".parse::<TopologySpec>().is_err());
        assert!("racks:cross_cap=1.5".parse::<TopologySpec>().is_err());
        assert!("racks:cross_cap=-0.1".parse::<TopologySpec>().is_err());
        assert!("racks:cross_cap=inf".parse::<TopologySpec>().is_err());
        assert!("racks:depth=3".parse::<TopologySpec>().is_err());
        assert!("racks:size".parse::<TopologySpec>().is_err());
    }

    #[test]
    fn list_parsing_handles_parameter_commas() {
        let specs =
            TopologySpec::parse_list("flat, racks:size=16,cross_cap=0.5, racks:size=64").unwrap();
        assert_eq!(
            specs,
            vec![
                TopologySpec::Flat,
                TopologySpec::Racks {
                    size: 16,
                    cross_cap: 0.5
                },
                TopologySpec::Racks {
                    size: 64,
                    cross_cap: 1.0
                },
            ]
        );
        assert!(TopologySpec::parse_list("").is_err());
        assert!(TopologySpec::parse_list("flat,torus").is_err());
    }

    #[test]
    fn registry_and_defaults_agree() {
        let all = TopologySpec::all_default();
        assert_eq!(all.len(), TopologySpec::registry().len());
        assert_eq!(all.len(), 2);
        for (spec, info) in all.iter().zip(TopologySpec::registry()) {
            assert_eq!(spec.name(), info.name);
            assert_eq!(spec.to_string(), info.default_spec);
        }
        assert_eq!(all[0], TopologySpec::Flat);
        assert_eq!(TopologySpec::default(), TopologySpec::Flat);
    }

    #[test]
    fn build_partitions_consecutive_ids() {
        let t = TopologySpec::Racks {
            size: 4,
            cross_cap: 1.0,
        }
        .build(10);
        assert_eq!(t.racks(), 3);
        assert_eq!(t.rack_of(NodeId(0)), 0);
        assert_eq!(t.rack_of(NodeId(3)), 0);
        assert_eq!(t.rack_of(NodeId(4)), 1);
        assert_eq!(t.rack_of(NodeId(9)), 2);
        assert!(!t.is_flat());

        let flat = TopologySpec::Flat.build(10);
        assert!(flat.is_flat());
        assert_eq!(flat.racks(), 1);
        assert_eq!(flat.rack_of(NodeId(7)), 0);
    }

    #[test]
    fn cross_budget_scales_with_cap() {
        let t = TopologySpec::Racks {
            size: 4,
            cross_cap: 0.5,
        }
        .build(8);
        assert_eq!(t.cross_budget(1000), 500);
        assert_eq!(t.cross_budget(3), 1);
        let contained = TopologySpec::Racks {
            size: 4,
            cross_cap: 0.0,
        }
        .build(8);
        assert_eq!(contained.cross_budget(1000), 0);
        let flat = TopologySpec::Flat.build(8);
        assert_eq!(flat.cross_budget(1000), 1000);
    }
}
