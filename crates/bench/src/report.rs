//! Plain-text tables and result persistence for experiment binaries.

use serde::Serialize;
use std::path::PathBuf;

/// A fixed-width text table mirroring the paper's layout.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory where experiment outputs are persisted
/// (`target/experiments/`).
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Persists a serializable result as pretty JSON under
/// `target/experiments/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(saved {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Persists raw text (e.g. curve TSVs) under `target/experiments/`.
pub fn save_text(name: &str, text: &str) {
    let path = output_dir().join(name);
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(saved {})", path.display());
    }
}

/// Persists a perf bin's result under `target/experiments/` like every
/// experiment and, unless `quick`, as the committed `BENCH_<name>.json`
/// at the workspace root, wherever the bin is run from. A `--quick`
/// smoke run leaves the committed snapshot alone.
pub fn report(name: &str, value: &serde_json::Value, quick: bool) {
    save_json(name, value);
    if quick {
        return;
    }
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(text) => match std::fs::write(&root, text + "\n") {
            Ok(()) => println!("(saved {})", root.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", root.display()),
        },
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

const USAGE: &str = "usage: [--quick] [--distributed] [--scale <f64>] [--epochs <n>]";

/// The options every experiment binary takes: `--quick`,
/// `--distributed`, `--scale <f64>` and `--epochs <n>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpArgs {
    /// Dataset scale multiplier override.
    pub scale: Option<f64>,
    /// Epoch count override.
    pub epochs: Option<usize>,
    /// Reduced settings for smoke runs.
    pub quick: bool,
    /// Run the distributed arm (table3/table4).
    pub distributed: bool,
}

impl ExpArgs {
    /// Parses `std::env::args`; on an unknown flag or a bad value it
    /// prints the error and the usage and exits with code 2.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExpArgs::parse_from(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown flag, value-flag
    /// without a value, or value that does not parse.
    pub fn parse_from(args: &[String]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            args: &mut std::slice::Iter<'_, String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = args.next().ok_or(format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut out = ExpArgs::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--quick" => out.quick = true,
                "--distributed" => out.distributed = true,
                "--scale" => out.scale = Some(value(&mut args, flag)?),
                "--epochs" => out.epochs = Some(value(&mut args, flag)?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "mrr"]);
        t.row(&["pbg".into(), "0.749".into()]);
        t.row(&["deepwalk-long".into(), "0.691".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("0.749"));
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("0.")).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), lines[1].len(), "rows not aligned");
    }

    #[test]
    fn exp_args_reject_unknown_flags_and_bad_values() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            ExpArgs::parse_from(&args)
        };
        let ok = parse(&[
            "--quick",
            "--scale",
            "1e-3",
            "--epochs",
            "3",
            "--distributed",
        ]);
        let expected = ExpArgs {
            scale: Some(1e-3),
            epochs: Some(3),
            quick: true,
            distributed: true,
        };
        assert_eq!(ok, Ok(expected));
        assert_eq!(parse(&[]), Ok(ExpArgs::default()));
        for bad in [
            &["--scales", "0.001"][..],
            &["--scale", "1e-3x"],
            &["--epochs", "two"],
            &["--scale"],
            &["--telemetry", "trace.jsonl"],
            &["quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }
}
