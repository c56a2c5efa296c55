//! Property tests for the `PolicySpec` string grammar: `parse` after
//! `Display` is the identity for every constructible spec, and list
//! parsing preserves order and arity for arbitrary spec lists.

use dmhpc::core::policy::PolicySpec;
use dmhpc::core::spec::SpecRegistry;
use proptest::prelude::*;

/// Build a spec from raw draws; `kind` selects the registry row and the
/// remaining draws fill whichever parameters that row has.
fn spec_from(kind: usize, history: u64, factor: f64, quantum: u64) -> PolicySpec {
    match kind {
        0 => PolicySpec::Baseline,
        1 => PolicySpec::Static,
        2 => PolicySpec::Dynamic,
        3 => PolicySpec::Predictive {
            history: history == 1,
        },
        4 => PolicySpec::Overcommit { factor },
        _ => PolicySpec::Conservative {
            quantum_mb: quantum,
        },
    }
}

proptest! {
    /// `to_string` prints the canonical spec, parsing it recovers the
    /// exact spec (floats included: Rust's shortest-round-trip `Display`
    /// guarantees `factor` survives), and the canonical form is a fixed
    /// point of another round-trip.
    #[test]
    fn display_parse_is_identity(
        kind in 0usize..6,
        history in 0u64..2,
        factor in 0.01f64..8.0,
        quantum in 1u64..1_000_000,
    ) {
        let spec = spec_from(kind, history, factor, quantum);
        let text = spec.to_string();
        let back: PolicySpec = text.parse().map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(back, spec);
        prop_assert_eq!(back.to_string(), text);
        // The name half of the grammar always matches the registry.
        prop_assert!(PolicySpec::registry_names().contains(spec.name()));
    }

    /// Joining canonical specs with the list separator and re-parsing
    /// preserves arity and order, even though parameterized specs embed
    /// commas of their own.
    #[test]
    fn list_round_trip_preserves_order(
        draws in prop::collection::vec(
            (0usize..6, 0u64..2, 0.01f64..8.0, 1u64..1_000_000),
            1..6,
        ),
    ) {
        let specs: Vec<PolicySpec> = draws
            .iter()
            .map(|&(kind, history, factor, quantum)| spec_from(kind, history, factor, quantum))
            .collect();
        let joined = specs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let parsed = PolicySpec::parse_list(&joined).map_err(|e| format!("{joined}: {e}"))?;
        prop_assert_eq!(parsed, specs);
    }

    /// Every overcommit factor the grammar accepts is positive and
    /// finite, so `build` can never produce a policy that admits jobs at
    /// a nonsensical size.
    #[test]
    fn parsed_factors_are_always_usable(
        factor in -4.0f64..8.0,
    ) {
        let text = format!("overcommit:factor={factor}");
        match text.parse::<PolicySpec>() {
            Ok(PolicySpec::Overcommit { factor: f }) => {
                prop_assert!(f.is_finite() && f > 0.0);
            }
            Ok(other) => prop_assert!(false, "parsed {other:?} from '{text}'"),
            Err(_) => prop_assert!(factor <= 0.0, "rejected valid factor {factor}"),
        }
    }
}
