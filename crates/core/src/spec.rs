//! Shared machinery for the string-parameterized spec registries.
//!
//! The simulator names its pluggable dimensions in registries —
//! policies in [`PolicySpec`](crate::policy::PolicySpec), topologies in
//! [`TopologySpec`](crate::cluster::TopologySpec) — and both speak the
//! same grammar:
//!
//! ```text
//! spec   := name [ ":" param ( "," param )* ]
//! param  := key "=" value
//! ```
//!
//! [`SpecRegistry`] is that common surface as a trait: one registry-row
//! type ([`SpecInfo`]), one `name[:params]` splitter, one `key=value`
//! parameter parser, one list parser with the comma-continuation rule,
//! and one error vocabulary (`unknown policy 'x' (known policies: …)`)
//! parameterized only by the registry's noun. A new registry implements
//! `KIND`/`KIND_PLURAL`/[`spec_registry`](SpecRegistry::spec_registry) plus its
//! own `FromStr` arm per name, and inherits everything else — the two
//! shipped registries no longer carry private copies of the grammar.

use crate::error::CoreError;

/// A registry row: everything a CLI needs to list one spec — its name,
/// parameter grammar, the spec a bare name expands to, and a one-line
/// description.
#[derive(Clone, Copy, Debug)]
pub struct SpecInfo {
    /// Spec name (the part before `:`).
    pub name: &'static str,
    /// Parameter grammar, empty for parameterless specs.
    pub params: &'static str,
    /// The spec string a bare name expands to.
    pub default_spec: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// A named, string-parameterized registry of specs.
///
/// Implementors provide the registry table and their `FromStr`; the
/// trait supplies the shared grammar helpers and the uniform error
/// formatting, so every registry parses and complains identically.
pub trait SpecRegistry: Sized + std::str::FromStr<Err = CoreError> {
    /// The registry's noun in error messages (`"policy"`).
    const KIND: &'static str;
    /// The noun's plural in error messages (`"policies"`).
    const KIND_PLURAL: &'static str;

    /// Every shipped spec, in presentation order.
    fn spec_registry() -> &'static [SpecInfo];

    /// The comma-separated registry names, for self-documenting parse
    /// errors.
    fn registry_names() -> String {
        let names: Vec<&str> = Self::spec_registry().iter().map(|i| i.name).collect();
        names.join(", ")
    }

    /// One spec per registry entry, each at its default parameters.
    fn registry_defaults() -> Vec<Self> {
        Self::spec_registry()
            .iter()
            .map(|info| {
                info.default_spec
                    .parse()
                    .expect("registry defaults must parse")
            })
            .collect()
    }

    /// Split a spec string into `(name, params)` at the first `:`,
    /// trimming both halves.
    fn split_spec(s: &str) -> (&str, Option<&str>) {
        match s.split_once(':') {
            Some((n, p)) => (n.trim(), Some(p.trim())),
            None => (s.trim(), None),
        }
    }

    /// Split a parameter tail into `key=value` pairs.
    ///
    /// # Errors
    /// Returns an error naming the first token that is not `key=value`,
    /// or the first key given twice.
    fn split_params<'a>(name: &str, params: &'a str) -> Result<Vec<(&'a str, &'a str)>, CoreError> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for kv in params.split(',') {
            let (key, value) = kv.split_once('=').ok_or_else(|| {
                CoreError::invalid_config(format!(
                    "{} '{name}': parameter '{kv}' is not key=value",
                    Self::KIND
                ))
            })?;
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(CoreError::invalid_config(format!(
                    "{} '{name}': parameter '{key}' given twice",
                    Self::KIND
                )));
            }
            pairs.push((key, value));
        }
        Ok(pairs)
    }

    /// Reject parameters on a parameterless spec.
    ///
    /// # Errors
    /// Returns an error when `params` is present.
    fn reject_params(name: &str, params: Option<&str>) -> Result<(), CoreError> {
        match params {
            None => Ok(()),
            Some(p) => Err(CoreError::invalid_config(format!(
                "{} '{name}' takes no parameters, got '{p}'",
                Self::KIND
            ))),
        }
    }

    /// The error for a name absent from the registry, listing every
    /// known name.
    fn unknown_name(name: &str) -> CoreError {
        CoreError::invalid_config(format!(
            "unknown {} '{name}' (known {}: {})",
            Self::KIND,
            Self::KIND_PLURAL,
            Self::registry_names()
        ))
    }

    /// Parse a comma-separated spec list. A `key=value` token without a
    /// `:` continues the previous spec's parameter list, so the list
    /// separator and the parameter separator coexist unambiguously.
    ///
    /// # Errors
    /// Returns the first spec's parse error, or an error on an empty
    /// list.
    fn parse_spec_list(s: &str) -> Result<Vec<Self>, CoreError> {
        let mut groups: Vec<String> = Vec::new();
        for token in s.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match groups.last_mut() {
                Some(prev) if token.contains('=') && !token.contains(':') => {
                    prev.push(',');
                    prev.push_str(token);
                }
                _ => groups.push(token.to_string()),
            }
        }
        if groups.is_empty() {
            return Err(CoreError::invalid_config(format!(
                "empty {} list (known {}: {})",
                Self::KIND,
                Self::KIND_PLURAL,
                Self::registry_names()
            )));
        }
        groups.iter().map(|g| g.parse()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-entry registry exercising every default method
    /// without touching the shipped registries.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Widget {
        Plain,
        Knobbed { turns: u32 },
    }

    const REGISTRY: [SpecInfo; 2] = [
        SpecInfo {
            name: "plain",
            params: "",
            default_spec: "plain",
            description: "no knobs",
        },
        SpecInfo {
            name: "knobbed",
            params: "turns=<N>",
            default_spec: "knobbed:turns=3",
            description: "a knob",
        },
    ];

    impl SpecRegistry for Widget {
        const KIND: &'static str = "widget";
        const KIND_PLURAL: &'static str = "widgets";

        fn spec_registry() -> &'static [SpecInfo] {
            &REGISTRY
        }
    }

    impl std::str::FromStr for Widget {
        type Err = CoreError;

        fn from_str(s: &str) -> Result<Self, CoreError> {
            let (name, params) = Self::split_spec(s);
            match name {
                "plain" => Self::reject_params(name, params).map(|()| Widget::Plain),
                "knobbed" => {
                    let mut turns = 3u32;
                    if let Some(p) = params {
                        for (k, v) in Self::split_params(name, p)? {
                            match k {
                                "turns" => {
                                    turns = v.parse().map_err(|_| {
                                        CoreError::invalid_config(format!(
                                            "knobbed: turns must be an integer, got '{v}'"
                                        ))
                                    })?;
                                }
                                key => {
                                    return Err(CoreError::invalid_config(format!(
                                        "knobbed: unknown parameter '{key}'"
                                    )))
                                }
                            }
                        }
                    }
                    Ok(Widget::Knobbed { turns })
                }
                other => Err(Self::unknown_name(other)),
            }
        }
    }

    #[test]
    fn defaults_and_names_come_from_the_registry() {
        assert_eq!(Widget::registry_names(), "plain, knobbed");
        assert_eq!(
            Widget::registry_defaults(),
            vec![Widget::Plain, Widget::Knobbed { turns: 3 }]
        );
    }

    #[test]
    fn error_vocabulary_uses_the_kind_nouns() {
        let err = "gizmo".parse::<Widget>().unwrap_err().to_string();
        assert!(
            err.contains("unknown widget 'gizmo' (known widgets: plain, knobbed)"),
            "{err}"
        );
        let err = "plain:turns=1".parse::<Widget>().unwrap_err().to_string();
        assert!(
            err.contains("widget 'plain' takes no parameters, got 'turns=1'"),
            "{err}"
        );
        let err = "knobbed:turns".parse::<Widget>().unwrap_err().to_string();
        assert!(
            err.contains("widget 'knobbed': parameter 'turns' is not key=value"),
            "{err}"
        );
        let err = "knobbed:turns=1,turns=2"
            .parse::<Widget>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("widget 'knobbed': parameter 'turns' given twice"),
            "{err}"
        );
        let err = Widget::parse_spec_list("  ,  ").unwrap_err().to_string();
        assert!(
            err.contains("empty widget list (known widgets: plain, knobbed)"),
            "{err}"
        );
    }

    #[test]
    fn list_parsing_continues_parameter_groups() {
        let specs = Widget::parse_spec_list("plain, knobbed:turns=5, knobbed").unwrap();
        assert_eq!(
            specs,
            vec![
                Widget::Plain,
                Widget::Knobbed { turns: 5 },
                Widget::Knobbed { turns: 3 },
            ]
        );
        assert!(Widget::parse_spec_list("plain,gizmo").is_err());
    }

    #[test]
    fn split_spec_trims_both_halves() {
        assert_eq!(Widget::split_spec(" plain "), ("plain", None));
        assert_eq!(
            Widget::split_spec(" knobbed : turns=2 "),
            ("knobbed", Some("turns=2"))
        );
    }
}
