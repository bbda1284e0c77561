//! Integration tests on the shard router over real sockets: boot
//! in-process shard servers plus a [`Router`], and hold the routed
//! responses to the same contract as a single node — byte-identical
//! bodies, keyed placement on exactly one shard, per-shard failure
//! domains, and a bounded upstream connection pool.

use std::time::Duration;

use mobipriv_service::{client, Router, RouterConfig, RouterHandle, Server, ServerConfig};

struct Cluster {
    shards: Vec<mobipriv_service::ServerHandle>,
    names: Vec<String>,
    router: Option<RouterHandle>,
}

impl Cluster {
    /// Boots `n` single-node shards and a router over them.
    fn boot(n: usize, configure: impl FnOnce(&mut RouterConfig)) -> Cluster {
        let shards: Vec<_> = (0..n)
            .map(|_| {
                Server::bind(ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                })
                .expect("bind shard")
                .spawn()
                .expect("spawn shard")
            })
            .collect();
        let names: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let mut config = RouterConfig {
            shards: names.clone(),
            workers: 4,
            ..RouterConfig::default()
        };
        configure(&mut config);
        let router = Router::bind(config)
            .expect("bind router")
            .spawn()
            .expect("spawn router");
        Cluster {
            shards,
            names,
            router: Some(router),
        }
    }

    fn router_addr(&self) -> std::net::SocketAddr {
        self.router.as_ref().expect("router running").addr()
    }

    /// Registers `csv` through the router; returns (digest, owner name).
    fn register(&self, csv: &[u8]) -> (String, String) {
        let addr = self.router_addr();
        let (status, body) = client::request(addr, "POST", "/v1/datasets", csv).expect("register");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let digest = client::json_str_field(&body, "digest").expect("digest field");
        let (status, body) =
            client::request(addr, "GET", &format!("/v1/route?key={digest}"), b"").expect("route");
        assert_eq!(status, 200);
        let owner = client::json_str_field(&body, "shard").expect("shard field");
        (digest, owner)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in self.shards.drain(..) {
            shard.shutdown();
        }
    }
}

fn workload(rows: u32) -> Vec<u8> {
    let mut csv = b"user,trace,lat,lng,time\n".to_vec();
    for i in 0..rows {
        csv.extend_from_slice(
            format!(
                "1,0,{:.4},{:.4},{}\n",
                48.85 + 0.001 * i as f64,
                2.35,
                30 * i
            )
            .as_bytes(),
        );
    }
    csv
}

#[test]
fn router_matches_a_single_node_byte_for_byte() {
    let cluster = Cluster::boot(3, |_| {});
    let reference = Server::bind(ServerConfig::default())
        .expect("bind reference")
        .spawn()
        .expect("spawn reference");
    let csv = workload(12);

    let (digest, _) = cluster.register(&csv);
    let (status, body) =
        client::request(reference.addr(), "POST", "/v1/datasets", &csv).expect("register ref");
    assert_eq!(status, 200);
    assert_eq!(
        client::json_str_field(&body, "digest").unwrap(),
        digest,
        "content addressing is deployment-independent"
    );

    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=42";
    let (status, via_router) =
        client::request(cluster.router_addr(), "POST", target, &csv).expect("anonymize via router");
    assert_eq!(status, 200);
    let (status, via_ref) =
        client::request(reference.addr(), "POST", target, &csv).expect("anonymize via reference");
    assert_eq!(status, 200);
    assert_eq!(via_router, via_ref, "routing changed the bytes");
    reference.shutdown();
}

#[test]
fn each_dataset_lands_on_exactly_one_shard() {
    let cluster = Cluster::boot(3, |_| {});
    let (digest, owner) = cluster.register(&workload(8));
    let target = format!("/v1/datasets/{digest}");
    let mut holders = Vec::new();
    for name in &cluster.names {
        let (status, _) = client::request(name.as_str(), "GET", &target, b"").expect("probe shard");
        if status == 200 {
            holders.push(name.clone());
        } else {
            assert_eq!(status, 404, "unexpected status from {name}");
        }
    }
    assert_eq!(holders, vec![owner], "keyed placement is single-homed");
}

#[test]
fn a_dead_shard_degrades_only_its_own_key_range() {
    let mut cluster = Cluster::boot(3, |_| {});
    // Register datasets until two land on different shards (bounded:
    // placement is ~uniform over 3 shards, and rows vary the digest).
    let (digest_a, owner_a) = cluster.register(&workload(8));
    let mut other = None;
    for rows in 9..40 {
        let csv = workload(rows);
        let (digest, owner) = cluster.register(&csv);
        if owner != owner_a {
            other = Some((csv, digest));
            break;
        }
    }
    let (csv_b, digest_b) = other.expect("30 datasets all landed on one of 3 shards");

    let target = "/v1/anonymize?mechanism=geoind&epsilon=0.01&seed=9";
    let (status, reference) =
        client::request(cluster.router_addr(), "POST", target, &csv_b).expect("warm reference");
    assert_eq!(status, 200);

    // Shoot the shard owning dataset A.
    let dead = cluster
        .names
        .iter()
        .position(|name| *name == owner_a)
        .expect("owner is a cluster member");
    cluster.shards.remove(dead).shutdown();

    let addr = cluster.router_addr();
    // Its key range answers 503 (degraded, not wedged)…
    let (status, _) =
        client::request(addr, "GET", &format!("/v1/datasets/{digest_a}"), b"").expect("dead range");
    assert_eq!(status, 503);
    // …while dataset B's range keeps serving the same bytes…
    let (status, body) = client::request(addr, "POST", target, &csv_b).expect("live range");
    assert_eq!(status, 200);
    assert_eq!(body, reference, "degradation changed surviving bytes");
    let (status, _) =
        client::request(addr, "GET", &format!("/v1/datasets/{digest_b}"), b"").expect("live meta");
    assert_eq!(status, 200);
    // …stateless routes fail over, health degrades, and the errors are
    // counted against the dead shard.
    let (status, _) = client::request(addr, "GET", "/v1/mechanisms", b"").expect("failover");
    assert_eq!(status, 200);
    let (status, body) = client::request(addr, "GET", "/healthz", b"").expect("health");
    assert_eq!((status, body.as_slice()), (200, &b"degraded\n"[..]));
    let (status, body) = client::request(addr, "GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let errors = text
        .lines()
        .find(|l| {
            l.starts_with(&format!(
                "mobipriv_route_errors_total{{shard=\"{owner_a}\"}}"
            ))
        })
        .expect("route errors exported per shard");
    assert!(
        !errors.ends_with(" 0"),
        "dead-shard errors not counted: {errors}"
    );
}

#[test]
fn bounded_upstream_pool_serves_more_clients_than_connections() {
    // One upstream connection per shard, four concurrent clients: the
    // checkout queue (not over-dialing) absorbs the excess, so every
    // request still succeeds against two-worker shards.
    let cluster = Cluster::boot(2, |config| {
        config.upstream_conns = 1;
        config.timeout = Duration::from_secs(30);
    });
    let addr = cluster.router_addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..5 {
                    let (status, body) =
                        client::request(addr, "GET", "/v1/mechanisms", b"").expect("request");
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                }
            });
        }
    });
}

#[test]
fn router_stats_are_the_sum_of_the_shards() {
    let cluster = Cluster::boot(2, |_| {});
    let addr = cluster.router_addr();
    // Publish until both shards own data (bounded: placement is
    // ~uniform over 2 shards), computing each result twice (a miss,
    // then a hit) and running one job per dataset to `done`.
    let mut owners = Vec::new();
    for rows in 8..40 {
        let (digest, owner) = cluster.register(&workload(rows));
        for _ in 0..2 {
            let target = format!("/v1/anonymize?mechanism=raw&dataset={digest}");
            let (status, _) = client::request(addr, "POST", &target, b"").expect("anonymize");
            assert_eq!(status, 200);
        }
        let target = format!("/v1/jobs?dataset={digest}&mechanism=promesse&alpha=100");
        let (status, body) = client::request(addr, "POST", &target, b"").expect("submit");
        assert!(status == 200 || status == 202, "submit answered {status}");
        let id = client::json_str_field(&body, "id").expect("job id");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let (_, body) =
                client::request(addr, "GET", &format!("/v1/jobs/{id}"), b"").expect("poll");
            match client::json_str_field(&body, "status").as_deref() {
                Some("done") => break,
                Some("failed") => panic!("job failed: {}", String::from_utf8_lossy(&body)),
                _ if std::time::Instant::now() > deadline => panic!("job never finished"),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if !owners.contains(&owner) {
            owners.push(owner);
        }
        if owners.len() == 2 && rows >= 11 {
            break;
        }
    }
    assert_eq!(owners.len(), 2, "every dataset landed on one shard");

    let stats = |addr: &str| {
        let (status, body) = client::request(addr, "GET", "/v1/stats", b"").expect("stats");
        assert_eq!(status, 200, "{addr}");
        mobipriv_eval::Json::parse(std::str::from_utf8(&body).unwrap()).expect("stats JSON")
    };
    let routed = stats(&addr.to_string());
    let shards: Vec<_> = cluster.names.iter().map(|name| stats(name)).collect();
    for path in [
        &["computations"][..],
        &["cache_hits"],
        &["cache_misses"],
        &["datasets", "count"],
        &["jobs", "done"],
    ] {
        let read = |doc: &mobipriv_eval::Json| {
            path.iter()
                .try_fold(doc, |doc, key| doc.get(key))
                .and_then(mobipriv_eval::Json::as_u64)
                .unwrap_or_else(|| panic!("missing {path:?}"))
        };
        let per_shard: Vec<u64> = shards.iter().map(read).collect();
        assert!(per_shard.iter().any(|&n| n > 0), "{path:?} is all zero");
        assert_eq!(
            read(&routed),
            per_shard.iter().sum::<u64>(),
            "{path:?}: router vs shards {per_shard:?}"
        );
    }

    // A routed response carries the owning shard's trace id and no
    // second one of the router's.
    let (digest, _) = cluster.register(&workload(8));
    let target = format!("/v1/datasets/{digest}");
    let (status, headers, _) = client::request_full(addr, "GET", &target, b"").expect("meta");
    assert_eq!(status, 200);
    let traces = headers
        .iter()
        .filter(|(name, _)| name == "x-mobipriv-trace")
        .count();
    assert_eq!(traces, 1, "{headers:?}");
}
