//! The daemon evaluates on a fixed set of threads: after the first
//! response, pipelined batches that each hold a miss start no thread, and
//! `run` joins every thread it started before it returns. Threads are
//! read from `/proc/self/task`, which is why this is a file of its own:
//! it runs in its own process, with no other test's threads beside it.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::Arc;

use pphw_dse::cache::EvalCache;
use pphw_server::{Client, Limits, Server, Service};

/// The ids of this process's live threads.
fn threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .map(|entry| {
            let name = entry.expect("a task entry").file_name();
            name.to_string_lossy().into_owned()
        })
        .collect()
}

#[test]
fn batches_with_misses_start_no_thread_and_run_joins_all_it_started() {
    let baseline = threads();
    let service = Arc::new(Service::new(Limits::default(), 1, EvalCache::new()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("run"));

    let mut c = Client::connect(&addr).expect("connect");
    let pong = c.call("{\"id\":0,\"method\":\"ping\"}").expect("ping");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let serving = threads();

    for k in 0..200u32 {
        // A never-seen simulate (its DRAM latency is new) beside a ping.
        let miss = format!(
            "{{\"id\":{k},\"method\":\"simulate\",\"bench\":\"sumrows\",\
             \"sizes\":{{\"m\":8,\"n\":8}},\"inner_par\":4,\"sim\":{{\"dram_latency\":{}}}}}",
            64 + k
        );
        c.send(&format!("{miss}\n{{\"id\":\"p\",\"method\":\"ping\"}}"))
            .expect("send");
        let during = threads();
        for _ in 0..2 {
            let resp = c.recv().expect("recv");
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
        let after = threads();
        for now in [during, after] {
            assert!(
                now.is_subset(&serving),
                "batch {k} started threads {:?}",
                now.difference(&serving).collect::<Vec<_>>()
            );
        }
    }
    assert_eq!(service.stats().dedup_builds, 200, "every batch held a miss");

    c.call("{\"id\":\"bye\",\"method\":\"shutdown\"}")
        .expect("shutdown");
    drop(c);
    daemon.join().expect("the daemon's run returns");
    assert_eq!(threads(), baseline, "run left threads behind");
}
