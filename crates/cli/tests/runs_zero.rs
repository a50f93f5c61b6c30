//! `--runs 0` collects nothing, so every command that collects into a
//! store must refuse it up front: exit 1 with an `error:` line, and
//! commit nothing to the store.

use std::path::Path;
use std::process::Command;

/// Runs the CLI and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_counterminer"))
        .args(args)
        .env_remove("CM_OBS")
        .output()
        .expect("the CLI starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// True when `path` holds no run, no series and no snapshot metadata:
/// either no file at all, or a store with nothing committed.
fn holds_nothing(path: &Path) -> bool {
    if !path.exists() {
        return true;
    }
    let store = cm_store::Store::open(path).expect("a readable store");
    store.run_ids().count() == 0
        && store.series_count() == 0
        && ["sort", "wordcount"]
            .iter()
            .all(|b| store.meta(&format!("snapshot.{b}.runs")).is_none())
}

#[test]
fn collecting_no_run_fails_typed_and_commits_nothing() {
    let dir = std::env::temp_dir().join(format!("cm_cli_runs_zero_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let cases: [(&str, Vec<String>); 3] = [
        (
            "ingest --follow",
            vec![
                "ingest".into(),
                "sort".into(),
                "--store".into(),
                store("follow.cmstore"),
                "--follow".into(),
            ],
        ),
        (
            "cluster",
            vec![
                "cluster".into(),
                "sort,wordcount".into(),
                "--store".into(),
                store("cluster.cmstore"),
            ],
        ),
        (
            "watch",
            vec![
                "watch".into(),
                "sort".into(),
                "--store".into(),
                store("watch.cmstore"),
            ],
        ),
    ];
    for (name, mut args) in cases {
        let path = Path::new(&args[3]).to_path_buf();
        args.extend(["--runs", "0", "--events", "8", "--trees", "5"].map(String::from));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{name}: exit code, stderr: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error:")),
            "{name}: no error line in {stderr:?}"
        );
        assert!(holds_nothing(&path), "{name} left a snapshot in {path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
