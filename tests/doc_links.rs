//! Documentation link check: every relative markdown link in the
//! repository-root docs and in `docs/` must point at a file that exists,
//! so the docs and the tree cannot drift apart. CI runs this as its docs
//! link-check step (`cargo test --test doc_links`).

use std::path::Path;

/// Extract `[text](target)` targets from markdown, skipping code fences.
fn links(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else { break };
            out.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
    }
    out
}

#[test]
fn relative_doc_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut broken = Vec::new();
    // Repo-root markdown plus everything under docs/ — links resolve
    // relative to the file that contains them.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for dir in [root.to_path_buf(), root.join("docs")] {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("md") {
                files.push(path);
            }
        }
    }
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read markdown");
        let base = path.parent().expect("markdown file has a parent dir");
        for target in links(&text) {
            // External links and pure intra-document anchors are out of
            // scope (this repo builds offline; no network fetches).
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let file_part = target.split('#').next().unwrap_or(&target);
            if file_part.is_empty() {
                continue;
            }
            let resolved = base.join(file_part);
            checked += 1;
            if !resolved.exists() {
                broken.push(format!("{}: {target}", path.file_name().unwrap().to_string_lossy()));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative links:\n  {}", broken.join("\n  "));
    assert!(checked > 0, "no relative links found — did the docs move?");
}

#[test]
fn architecture_doc_covers_every_crate() {
    // docs/ARCHITECTURE.md is the codebase's guided tour: it must exist,
    // be reachable from the README, and name all twelve workspace
    // crates, so a new crate cannot land without a tour stop.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let arch_path = root.join("docs/ARCHITECTURE.md");
    assert!(arch_path.exists(), "docs/ARCHITECTURE.md missing");
    let arch = std::fs::read_to_string(&arch_path).unwrap();
    for krate in [
        "staged-core",
        "staged-engine",
        "staged-storage",
        "staged-planner",
        "staged-sql",
        "staged-server",
        "staged-wire",
        "staged-dbclient",
        "staged-bench",
        "staged-sim",
        "staged-workload",
        "staged-cachesim",
    ] {
        assert!(arch.contains(krate), "ARCHITECTURE.md does not cover {krate}");
    }
    // The tour must walk the packet lifecycle and the stage graph.
    for anchor in ["life of a QUERY", "stage graph", "disconnect", "fscan"] {
        assert!(arch.contains(anchor), "ARCHITECTURE.md lost its {anchor:?} section");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(readme.contains("docs/ARCHITECTURE.md"), "README does not link the architecture tour");
}

#[test]
fn core_docs_exist_and_cross_link() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in ["README.md", "PROTOCOL.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"] {
        assert!(root.join(doc).exists(), "{doc} missing");
    }
    // The protocol spec must be reachable from the README.
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(readme.contains("PROTOCOL.md"), "README does not link the wire-protocol spec");
}

#[test]
fn concurrency_doc_covers_the_mvcc_surface() {
    // docs/CONCURRENCY.md is the concurrency-control reference: it must
    // exist, be reachable from the README and the architecture tour, and
    // cover every load-bearing concept, so the MVCC machinery cannot
    // change without the document being looked at.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("docs/CONCURRENCY.md");
    assert!(path.exists(), "docs/CONCURRENCY.md missing");
    let doc = std::fs::read_to_string(&path).unwrap();
    for anchor in [
        "BEGIN READ ONLY",
        "ReadView",
        "CommitOracle",
        "VersionStore",
        "filter_page",
        "strict two-phase locking",
        "snapshot isolation",
        "read committed",
        "vacuum",
        "worked interleaving",
        "versions_gc",
    ] {
        assert!(doc.contains(anchor), "CONCURRENCY.md lost its {anchor:?} coverage");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(readme.contains("docs/CONCURRENCY.md"), "README does not link CONCURRENCY.md");
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    assert!(arch.contains("CONCURRENCY.md"), "ARCHITECTURE.md does not link CONCURRENCY.md");
    // And the wire-visible surface is specified where clients look.
    let proto = std::fs::read_to_string(root.join("PROTOCOL.md")).unwrap();
    for anchor in ["BEGIN READ ONLY", "READ_ONLY", "`mvcc`", "versions_gc"] {
        assert!(proto.contains(anchor), "PROTOCOL.md lost its {anchor:?} coverage");
    }
}

#[test]
fn subscription_and_front_end_docs_cover_the_surface() {
    // PR 10's push surface and event loop are documented where each
    // audience looks: the wire contract in PROTOCOL.md §8, the design
    // rationale in DESIGN.md §16, the crate tour in ARCHITECTURE.md, and
    // the measurements in EXPERIMENTS.md — so neither the change-feed
    // guarantees nor the admission policy can change silently.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let proto = std::fs::read_to_string(root.join("PROTOCOL.md")).unwrap();
    for anchor in [
        "§8 Subscriptions",
        "SUBSCRIBE <table> [WHERE <predicate>]",
        "UNSUBSCRIBE",
        "CHANGE <table> <op>",
        "Whole transactions, in commit order",
        "Subscriptions start now",
        "evicted",
        "`subscriptions`",
        "§9 What the protocol deliberately omits",
    ] {
        assert!(proto.contains(anchor), "PROTOCOL.md lost its {anchor:?} coverage");
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    for anchor in [
        "§16 The event-driven front end",
        "net-loop",
        "max_inflight",
        "ReactivityHub",
        "WalFeed",
        "ServerCore",
        "Back-pressure as dropped interest",
        "The completion waker",
    ] {
        assert!(design.contains(anchor), "DESIGN.md lost its {anchor:?} coverage");
    }
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    for anchor in
        ["reactivity.rs", "feed.rs", "server_core.rs", "event-driven TCP front end", "net-loop"]
    {
        assert!(arch.contains(anchor), "ARCHITECTURE.md lost its {anchor:?} coverage");
    }
    let exp = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    for anchor in ["net_scale_p2", "scale", "thread count"] {
        assert!(exp.contains(anchor), "EXPERIMENTS.md lost its {anchor:?} coverage");
    }
}
