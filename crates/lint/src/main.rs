//! CLI for the boosting-discipline analyzer.
//!
//! ```text
//! txboost-lint --workspace [--deny-all] [--inventory PATH] [--sarif PATH] [--quiet]
//! txboost-lint --path DIR
//! txboost-lint --list-rules
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use txboost_lint::{declares_workspace, lint_tree, to_sarif, Report, RULES};

struct Args {
    workspace: bool,
    path: Option<PathBuf>,
    deny_all: bool,
    inventory: Option<PathBuf>,
    sarif: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        path: None,
        deny_all: false,
        inventory: None,
        sarif: None,
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
            "--inventory" => {
                let p = it.next().ok_or("--inventory requires a file argument")?;
                args.inventory = Some(PathBuf::from(p));
            }
            "--sarif" => {
                let p = it.next().ok_or("--sarif requires a file argument")?;
                args.sarif = Some(PathBuf::from(p));
            }
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "txboost-lint: boosting-discipline static analyzer\n\n\
                     USAGE:\n  txboost-lint --workspace [--deny-all] [--inventory PATH] [--sarif PATH] [--quiet]\n  \
                     txboost-lint --path DIR [--deny-all]\n  txboost-lint --list-rules\n\n\
                     FLAGS:\n  --workspace       lint the enclosing cargo workspace\n  \
                     --path DIR        lint a directory tree instead\n  \
                     --deny-all        exit non-zero on any unsuppressed finding\n  \
                     --inventory PATH  where to write unsafe_inventory.json\n  \
                     --sarif PATH      where to write a SARIF 2.1.0 log of all findings\n  \
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
    println!(
        "  {:<24} every `// txboost-lint: allow(<rule>)` must carry `: <reason>`",
        txboost_lint::SUPPRESSION_MISSING_REASON
    );
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
        for d in report.unsuppressed() {
            println!("{}\n", d.render());
        }
    }
    // The inventory and lock-order graph are written for workspace runs
    // (CI uploads them) or wherever the flags point.
    let inv_path = args
        .inventory
        .clone()
        .or_else(|| args.workspace.then(|| root.join("unsafe_inventory.json")));
    if let Some(p) = &inv_path {
        std::fs::write(p, report.inventory_json())
            .map_err(|e| format!("failed to write {}: {e}", p.display()))?;
    }
    let mut graph_note = String::new();
    if let (true, Some(g)) = (args.workspace, report.lock_graph.as_ref()) {
        for (name, text) in [
            ("lock_order_graph.json", g.to_json()),
            ("lock_order_graph.dot", g.to_dot()),
        ] {
            let p = root.join(name);
            std::fs::write(&p, text)
                .map_err(|e| format!("failed to write {}: {e}", p.display()))?;
        }
        graph_note = format!(
            ", lock graph: {} lock(s) / {} order edge(s) / {} cycle(s)",
            g.nodes.len(),
            g.edges.len(),
            g.cycles.len()
        );
    }
    if let Some(p) = &args.sarif {
        std::fs::write(p, to_sarif(&report))
            .map_err(|e| format!("failed to write {}: {e}", p.display()))?;
    }

    let unsuppressed = report.unsuppressed().count();
    let suppressed = report.suppressed().count();
    println!(
        "txboost-lint: {} file(s), {} rule(s): {} finding(s), {} suppressed, {} unsafe site(s) inventoried{}{}",
        report.files,
        RULES.len(),
        unsuppressed,
        suppressed,
        report.inventory.len(),
        inv_path
            .as_deref()
            .map(|p: &Path| format!(" -> {}", p.display()))
            .unwrap_or_default(),
        graph_note
    );
    if args.deny_all && unsuppressed > 0 {
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
