//! Flag parsing for the `eirs` command-line binary.
//!
//! Deliberately minimal (the approved dependency set has no argument
//! parser): flags are `--key value` pairs collected into a map, with typed
//! accessors and defaults. Each command names the flags it reads
//! ([`CliArgs::accept`]), and any other flag is refused rather than
//! silently ignored. The binary in `src/bin/eirs/` (one module per
//! command, sharing the flag helpers of its `flags` module) stays a thin
//! wiring layer over the library; its commands return `Result<(),
//! String>`, so a [`CliError`] converts into `String` and `?` carries it.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// First positional argument (the subcommand).
    pub command: String,
    flags: BTreeMap<String, String>,
    /// The flags the command reads, once [`CliArgs::accept`] named them.
    accepted: Vec<&'static str>,
}

/// Errors from flag parsing or typed access.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` without a value, or a stray positional token.
    Malformed(String),
    /// A flag the command does not read.
    UnknownFlag {
        /// The command.
        command: String,
        /// Flag name.
        flag: String,
    },
    /// A flag failed to parse as the requested type.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand"),
            CliError::Malformed(tok) => write!(f, "malformed argument: {tok}"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "'{command}' does not take --{flag}")
            }
            CliError::BadValue { flag, value } => {
                write!(f, "cannot parse --{flag} value '{value}'")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<CliError> for String {
    fn from(e: CliError) -> String {
        e.to_string()
    }
}

impl CliArgs {
    /// Parses `args` (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(CliError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(CliError::Malformed(command));
        }
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(CliError::Malformed(tok));
            };
            let value = it.next().ok_or_else(|| CliError::Malformed(tok.clone()))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Self {
            command,
            flags,
            accepted: Vec::new(),
        })
    }

    /// Names the flags the command reads and refuses any other, naming
    /// the first one. From then on, reading a flag outside `accepted` is
    /// a bug in the command, which debug builds catch at the read.
    pub fn accept(
        &mut self,
        accepted: impl IntoIterator<Item = &'static str>,
    ) -> Result<(), CliError> {
        self.accepted = accepted.into_iter().collect();
        match self
            .flags
            .keys()
            .find(|f| !self.accepted.contains(&f.as_str()))
        {
            Some(flag) => Err(CliError::UnknownFlag {
                command: self.command.clone(),
                flag: flag.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.accepted.is_empty() || self.accepted.contains(&name),
            "'{}' reads --{name} without accepting it",
            self.command
        );
        self.flags.get(name).map(String::as_str)
    }

    /// String flag with default.
    pub fn get_or(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }

    /// Typed flag with default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        Ok(self.get_parsed(name)?.unwrap_or(default))
    }

    /// Typed flag without a default: `None` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|raw| {
                raw.parse().map_err(|_| CliError::BadValue {
                    flag: name.to_string(),
                    value: raw.to_string(),
                })
            })
            .transpose()
    }

    /// The global `--threads N` flag: the sweep worker count, as an
    /// explicit alternative to the `EIRS_THREADS` environment variable.
    /// `None` when absent; zero is rejected (a sweep needs at least one
    /// worker).
    pub fn threads(&self) -> Result<Option<usize>, CliError> {
        match self.get_parsed("threads")? {
            Some(0) => Err(CliError::BadValue {
                flag: "threads".to_string(),
                value: self.get_or("threads", ""),
            }),
            n => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["analyze", "--k", "4", "--rho", "0.7"]).unwrap();
        assert_eq!(a.command, "analyze");
        assert_eq!(a.get("k"), Some("4"));
        assert_eq!(a.get_parsed_or("rho", 0.0).unwrap(), 0.7);
        assert_eq!(a.get_parsed_or::<u32>("k", 1).unwrap(), 4);
    }

    #[test]
    fn defaults_apply_for_missing_flags() {
        let a = parse(&["compare"]).unwrap();
        assert_eq!(a.get_parsed_or("k", 4u32).unwrap(), 4);
        assert_eq!(a.get_or("policy", "if"), "if");
    }

    #[test]
    fn rejects_missing_command() {
        assert_eq!(parse(&[]), Err(CliError::MissingCommand));
        assert!(matches!(parse(&["--k", "4"]), Err(CliError::Malformed(_))));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(matches!(
            parse(&["analyze", "--k"]),
            Err(CliError::Malformed(_))
        ));
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        // Absent: no override requested.
        assert_eq!(parse(&["analyze"]).unwrap().threads(), Ok(None));
        // Present: explicit worker count.
        let a = parse(&["compare", "--threads", "6"]).unwrap();
        assert_eq!(a.threads(), Ok(Some(6)));
        // Zero workers and garbage are rejected.
        for bad in ["0", "many", "-2"] {
            let a = parse(&["compare", "--threads", bad]).unwrap();
            assert!(
                matches!(a.threads(), Err(CliError::BadValue { .. })),
                "--threads {bad} should be rejected"
            );
        }
    }

    #[test]
    fn optional_typed_flags_are_none_when_absent() {
        let a = parse(&["serve", "--swap-at", "12", "--kill-after", "x"]).unwrap();
        assert_eq!(a.get_parsed::<u64>("swap-at"), Ok(Some(12)));
        assert_eq!(a.get_parsed::<u64>("snapshot-at"), Ok(None));
        assert!(matches!(
            a.get_parsed::<u64>("kill-after"),
            Err(CliError::BadValue { .. })
        ));
        let message: String = a.get_parsed::<u64>("kill-after").unwrap_err().into();
        assert_eq!(message, "cannot parse --kill-after value 'x'");
    }

    #[test]
    fn accept_refuses_the_first_flag_outside_the_list() {
        let mut a = parse(&["serve", "--trace", "x", "--json", "true"]).unwrap();
        let err = a.accept(["json", "workload"]).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "serve".into(),
                flag: "trace".into()
            }
        );
        assert_eq!(err.to_string(), "'serve' does not take --trace");
        let mut a = parse(&["serve", "--json", "true"]).unwrap();
        assert_eq!(a.accept(["json", "workload"]), Ok(()));
        assert_eq!(a.get("json"), Some("true"));
        assert_eq!(a.get("workload"), None);
    }

    #[test]
    fn rejects_unparsable_value() {
        let a = parse(&["analyze", "--k", "four"]).unwrap();
        assert!(matches!(
            a.get_parsed_or::<u32>("k", 1),
            Err(CliError::BadValue { .. })
        ));
    }
}
