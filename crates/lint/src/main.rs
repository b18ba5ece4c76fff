//! CLI for the boosting-discipline analyzer.
//!
//! ```text
//! txboost-lint --workspace [--deny-all] [--quiet]
//! txboost-lint --path DIR
//! txboost-lint --list-rules
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use txboost_lint::{declares_workspace, lint_tree, Report, RULES};

struct Args {
    workspace: bool,
    path: Option<PathBuf>,
    deny_all: bool,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        path: None,
        deny_all: false,
        list_rules: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--path" => {
                let p = it.next().ok_or("--path requires a directory argument")?;
                args.path = Some(PathBuf::from(p));
            }
            "--deny-all" => args.deny_all = true,
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "txboost-lint: boosting-discipline static analyzer\n\n\
                     USAGE:\n  txboost-lint --workspace [--deny-all] [--quiet]\n  \
                     txboost-lint --path DIR [--deny-all]\n  txboost-lint --list-rules\n\n\
                     FLAGS:\n  --workspace       lint the enclosing cargo workspace \
                     (writes unsafe_inventory.json at its root)\n  \
                     --path DIR        lint a directory tree instead\n  \
                     --deny-all        exit non-zero on any finding\n  \
                     --list-rules      print the rule table and exit\n  \
                     --quiet           only print the summary line"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if !args.workspace && args.path.is_none() && !args.list_rules {
        return Err("pass --workspace, --path DIR, or --list-rules".to_string());
    }
    Ok(args)
}

/// Ascend from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if declares_workspace(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn list_rules() {
    println!("txboost-lint rules ({}):\n", RULES.len());
    for r in RULES {
        println!("  {:<24} {}", r.name, r.summary);
        println!("  {:<24} paper: {}\n", "", r.paper);
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list_rules {
        list_rules();
        return Ok(ExitCode::SUCCESS);
    }
    let root = match &args.path {
        Some(p) => p.clone(),
        None => find_workspace_root()
            .ok_or("no enclosing cargo workspace found (run from inside the repo)")?,
    };
    let report: Report =
        lint_tree(&root).map_err(|e| format!("failed to lint {}: {e}", root.display()))?;

    if !args.quiet {
        for d in &report.diagnostics {
            println!("{}\n", d.render());
        }
    }
    // Workspace runs write the inventory (CI uploads it).
    let mut inventory_note = String::new();
    if args.workspace {
        let p = root.join("unsafe_inventory.json");
        std::fs::write(&p, report.inventory_json())
            .map_err(|e| format!("failed to write {}: {e}", p.display()))?;
        inventory_note = format!(" -> {}", p.display());
    }

    let findings = report.diagnostics.len();
    println!(
        "txboost-lint: {} file(s), {} rule(s): {} finding(s), {} unsafe site(s) inventoried{}",
        report.files,
        RULES.len(),
        findings,
        report.inventory.len(),
        inventory_note
    );
    if args.deny_all && findings > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("txboost-lint: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
