//! Minimal `--key value` / `--flag` argument parsing for the benchmark
//! binaries (no external CLI dependency).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses from an iterator of raw arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                // `--key=value`, `--key value`, or bare `--flag`.
                if let Some((k, v)) = name.split_once('=') {
                    values.insert(k.to_string(), v.to_string());
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let v = iter.next().expect("peeked");
                    values.insert(name.to_string(), v);
                } else {
                    flags.push(name.to_string());
                }
            } else {
                flags.push(arg);
            }
        }
        Args { values, flags }
    }

    /// Parses from the process environment.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Raw value for `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Parsed value for `--key`, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the value does not parse.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|e| panic!("--{key} {raw}: {e}")),
        }
    }

    /// `true` if `--name` appeared as a bare flag.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// All bare flags/positional arguments, in order.
    pub fn flags(&self) -> &[String] {
        &self.flags
    }

    /// Checks every `--key value` against `keys` and every bare flag
    /// against `flags`, so a misspelt or retired argument fails loudly
    /// instead of silently running a different setup.
    ///
    /// # Errors
    ///
    /// The first unknown argument (keys before flags, keys in sorted
    /// order), formatted as `--name`.
    pub fn reject_unknown(&self, keys: &[&str], flags: &[&str]) -> Result<(), String> {
        let unknown_key = self
            .values
            .keys()
            .filter(|k| !keys.contains(&k.as_str()))
            .min();
        let unknown_flag = self.flags.iter().find(|f| !flags.contains(&f.as_str()));
        match unknown_key.or(unknown_flag) {
            Some(name) => Err(format!("--{name}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn key_value_styles() {
        let a = parse("--millis 500 --trials=15 --verbose");
        assert_eq!(a.get("millis"), Some("500"));
        assert_eq!(a.get_or("trials", 0usize), 15);
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get_or("absent", 7u32), 7);
    }

    #[test]
    fn flag_before_value_pair() {
        let a = parse("--all --machine xeon5220");
        assert!(a.has_flag("all"));
        assert_eq!(a.get("machine"), Some("xeon5220"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // `-5` does not start with `--`, so it binds to the key.
        let a = parse("--min -5");
        assert_eq!(a.get_or("min", 0i64), -5);
    }

    #[test]
    fn unknown_keys_and_flags_are_named() {
        let a = parse("--ops 10 --retired --trace");
        assert_eq!(a.reject_unknown(&["ops"], &["trace", "retired"]), Ok(()));
        assert_eq!(
            a.reject_unknown(&["ops"], &["trace"]),
            Err("--retired".to_owned())
        );
        // A known flag name given a value is still an unknown key.
        let a = parse("--trace on");
        assert_eq!(a.reject_unknown(&[], &["trace"]), Err("--trace".to_owned()));
    }

    #[test]
    #[should_panic(expected = "--trials")]
    fn bad_value_panics_with_key_name() {
        let a = parse("--trials abc");
        let _ = a.get_or("trials", 0usize);
    }
}
