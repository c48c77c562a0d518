//! A committed shard snapshot directory must keep restoring to the same
//! daemon state.
//!
//! `tests/golden/leased-state/` holds the `shard-<i>.json` files a daemon
//! with the default configuration (four shards, leases `1:1,4:2.5,16:6`)
//! wrote on shutdown, after a seeded stream of demands in which some
//! tenants were force-released; `tests/golden/leased-stats.json` holds
//! the `stats` answer that daemon gave before shutting down, exactly as
//! `loadgen stats` prints it. Restoring every shard must reproduce that
//! answer byte for byte, and snapshotting a restored shard must reproduce
//! its file byte for byte — so a change to the policy's state or its
//! `tenant-permit/v1` encoding cannot silently break a restart.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p leased --test
//! snapshot_golden` only after an intentional format change.

use leased::client::Client;
use leased::protocol::DaemonStats;
use leased::server::{shard_snapshot_path, Server, ServerConfig};
use leased::shard::{restore_shard, Shard, ShardReply, ShardRequest};
use leasing_core::engine::DecisionRetention;
use leasing_core::lease::{LeaseStructure, LeaseType};
use std::path::PathBuf;
use std::sync::Arc;

/// The `leased` binary's default lease structure.
fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Drives a default-configured daemon persisting into `dir` through a
/// seeded stream of demands and force-releases, then shuts it down;
/// returns its `stats` answer as `loadgen stats` prints it.
fn write_state(dir: PathBuf) -> String {
    let config = ServerConfig {
        snapshot_dir: Some(dir),
        ..ServerConfig::new(structure())
    };
    let server = Server::bind("127.0.0.1:0", &config).unwrap();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(addr).unwrap();
    for time in 0..48u64 {
        for tenant in 0..12u64 {
            // Each tenant demands on a different subset of days, so its
            // duals climb to day, 4-day and 16-day leases at its own pace.
            if (time * (tenant + 3) + tenant) % 5 < 2 + tenant % 3 {
                client.submit(tenant, time).unwrap();
            }
        }
        if time % 11 == 7 {
            client.force_release(time % 12, time).unwrap();
            client.force_release((time + 5) % 12, time).unwrap();
        }
    }
    let stats = format!("{}\n", client.stats().unwrap().to_json());
    client.shutdown().unwrap();
    drop(client);
    thread.join().unwrap();
    stats
}

#[test]
fn committed_snapshot_restores_to_the_committed_stats_and_bytes() {
    let state = golden_dir().join("leased-state");
    let stats_path = golden_dir().join("leased-stats.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let _ = std::fs::remove_dir_all(&state);
        let stats = write_state(state.clone());
        std::fs::write(&stats_path, stats).unwrap();
    }
    let golden_stats = std::fs::read_to_string(&stats_path).unwrap();
    let shards = ServerConfig::new(structure()).shards;
    let mut restored = Vec::new();
    for index in 0..shards {
        let text = std::fs::read_to_string(shard_snapshot_path(&state, index)).unwrap();
        let (engine, _core) = restore_shard(structure(), &text).unwrap();
        restored.push(engine.stats());

        let shard = Shard::spawn(
            index,
            structure(),
            4,
            Some(text.clone()),
            Arc::default(),
            0,
            DecisionRetention::Full,
        );
        let ShardReply::Snapshot(again) = shard.call(ShardRequest::Shutdown).unwrap() else {
            panic!("shard {index} refused to snapshot");
        };
        shard.join();
        assert!(again == text, "shard {index} re-snapshot drifted");
    }
    let stats = format!("{}\n", DaemonStats { shards: restored }.to_json());
    assert_eq!(stats, golden_stats, "restored stats drifted");
}
