//! The three workloads: their fixed corpus, their set-up, and the seeded
//! operation sequences their clients replay.
//!
//! The database, the profiles and the query texts are a fixed corpus (the
//! generator seeds below), so every seed measures the same data. The
//! workload seed drives only what the clients do: which user and text each
//! read picks, the order cold keys are visited in, and which preference each
//! write updates to which degree. Every sequence is generated before timing
//! starts; the program sees only the generated operations.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pqp_core::{AtomicPreference, PersonalizeOptions, Profile};
use pqp_datagen::{
    generate, generate_profiles, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
    Zipf,
};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_server::{ReplConfig, ReplNode, Server, ServerConfig, ServerHandle};
use pqp_service::{QueryApi, Service, ServiceConfig, UserId};
use pqp_storage::Value;
use pqp_wire::{Client, ClientConfig, Role};

/// Closed-loop clients, one thread each (the reference host has 2 cores).
pub const CLIENTS: usize = 2;
/// Largest change a write makes to a preference's generated degree.
const DOI_NUDGE: f64 = 0.02;
/// Zipf exponent of user and text popularity.
const ZIPF_S: f64 = 1.0;
/// Selection preferences per generated profile.
const PROFILE_SELECTIONS: usize = 60;
/// Seed of the generated profiles; the database and the query texts use
/// their generators' default seeds.
const PROFILE_SEED: u64 = 11;
/// Share of mutate_tcp's operations that are profile writes.
const WRITE_SHARE: f64 = 0.1;
/// Operations generated per client for the hot and TCP workloads; a client
/// that runs out wraps around to the start of its sequence.
const SEQUENCE_LEN: usize = 40_000;

/// The personalization every workload runs: the MQ rewrite, K = 8, L = 1.
pub fn options() -> PersonalizeOptions {
    PersonalizeOptions::builder().k(8).l(1).build()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Why: in-process reads on a 10 000-movie database whose ~350 keys all
    /// sit warm in the plan cache, so nearly all time is executor time and
    /// pqp-core does no work. An executor change shows here; a
    /// personalization change must show no change here.
    HotServe,
    /// Why: 1000 users x 16 texts visited in an order where a key recurs
    /// only after 16 000 others (the plan cache holds 4096), so every read
    /// runs selection -> integration -> planning and execution is a minor
    /// share. A selection, integration or planner change shows here.
    ColdPersonalize,
    /// Why: the only workload through the wire, the server's connection
    /// threads, the WAL and replication, with each client's writes bumping
    /// its own epoch so the next reads re-personalize. A cache or
    /// invalidation change that helps hot_serve but costs here shows here.
    MutateTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::HotServe, Workload::ColdPersonalize, Workload::MutateTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotServe => "hot_serve",
            Workload::ColdPersonalize => "cold_personalize",
            Workload::MutateTcp => "mutate_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn movies(self) -> usize {
        match self {
            Workload::HotServe => 10_000,
            Workload::ColdPersonalize | Workload::MutateTcp => 300,
        }
    }

    fn read_users(self) -> usize {
        match self {
            Workload::HotServe => 50,
            Workload::ColdPersonalize => 1000,
            Workload::MutateTcp => CLIENTS,
        }
    }

    /// Query texts: hot_serve keeps the distinct texts among the first 8
    /// generated (the macro load harness's corpus); the others take the
    /// first 16 distinct ones.
    fn texts(self, pools: &pqp_datagen::ValuePools) -> (Vec<String>, usize) {
        let (generated, keep) = match self {
            Workload::HotServe => (8, 8),
            Workload::ColdPersonalize | Workload::MutateTcp => (64, 16),
        };
        let mut texts: Vec<String> = Vec::new();
        for q in generate_queries(generated, pools, &QueryGenConfig::default()) {
            let text = q.to_string();
            if !texts.contains(&text) {
                texts.push(text);
            }
        }
        texts.truncate(keep);
        (texts, generated)
    }
}

/// One operation of a client's sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Run text `text` as read user `user`.
    Read { user: u32, text: u16 },
    /// Set the degree of the client's user's selection preference `target`.
    Write { target: u16, doi: f64 },
}

/// How a client reaches the service.
pub enum Conn {
    /// `Session` calls on the in-process service.
    InProc,
    /// A wire client bound to the client's user.
    Tcp(Box<Client>),
}

/// Leader and follower of the replicated profile store.
pub struct Cluster {
    pub leader: ServerHandle,
    pub follower: ServerHandle,
    pub leader_node: Arc<ReplNode>,
    pub follower_node: Arc<ReplNode>,
    pub follower_service: Arc<Service>,
    pub leader_dir: PathBuf,
    pub follower_dir: PathBuf,
}

/// A set-up workload, ready for its first timed operation.
pub struct Fixture {
    pub workload: Workload,
    /// The service reads go to (the leader's, for mutate_tcp).
    pub service: Arc<Service>,
    pub users: Vec<UserId>,
    /// mutate_tcp only: per client, the selection preferences of its user
    /// (`users[client]`), the targets of its writes.
    pub write_targets: Vec<Vec<WriteTarget>>,
    pub texts: Vec<String>,
    /// The service's canonical form of each text (the query log's key).
    pub canonical: Vec<String>,
    /// Texts generated before deduplication.
    pub generated_texts: usize,
    pub conns: Vec<Conn>,
    pub cluster: Option<Cluster>,
}

impl Fixture {
    pub fn keys(&self) -> usize {
        self.users.len() * self.texts.len()
    }

    /// Close clients, stop servers and delete the WAL directories.
    pub fn teardown(self) {
        for conn in self.conns {
            if let Conn::Tcp(client) = conn {
                client.close();
            }
        }
        if let Some(c) = self.cluster {
            c.leader.shutdown();
            c.follower.shutdown();
            let _ = std::fs::remove_dir_all(&c.leader_dir);
            let _ = std::fs::remove_dir_all(&c.follower_dir);
        }
    }
}

/// A selection preference a client's writes update, with its degree in the
/// generated profile.
pub struct WriteTarget {
    pub table: String,
    pub column: String,
    pub value: Value,
    pub doi: f64,
}

fn selections_of(profile: &Profile) -> Vec<WriteTarget> {
    profile
        .selections()
        .filter_map(|p| match p {
            AtomicPreference::Selection { attr, value, doi } => Some(WriteTarget {
                table: attr.table.clone(),
                column: attr.column.clone(),
                value: value.clone(),
                doi: doi.value(),
            }),
            AtomicPreference::Join { .. } => None,
        })
        .collect()
}

fn service_for(db: pqp_engine::Database) -> Arc<Service> {
    Arc::new(Service::with_config(
        db,
        ServiceConfig { options: options(), ..ServiceConfig::default() },
    ))
}

fn start_node(
    service: &Arc<Service>,
    dir: &Path,
    id: &str,
    role: Role,
    peers: Vec<String>,
) -> Result<(ServerHandle, Arc<ReplNode>), String> {
    let mut config = ReplConfig::new(id, dir);
    config.role = role;
    config.peers = peers;
    config.quorum = if role == Role::Leader { 2 } else { 1 };
    let node = ReplNode::open(Arc::clone(service), config).map_err(|e| format!("{id}: {e}"))?;
    let server_config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    let handle =
        Server::bind_replicated(Arc::clone(service), server_config, Some(Arc::clone(&node)))
            .and_then(Server::spawn)
            .map_err(|e| format!("{id}: {e}"))?;
    Ok((handle, node))
}

/// Build the workload from scratch: data, service, profiles, servers and
/// clients, warm-up. `work_dir` receives the WAL directories; `tag` keeps
/// repeated set-ups apart.
pub fn setup(workload: Workload, work_dir: &Path, tag: usize) -> Result<Fixture, String> {
    let m =
        generate(MovieDbConfig { movies: workload.movies(), theatres: 10, ..Default::default() });
    let (texts, generated_texts) = workload.texts(&m.pools);
    let profiles = generate_profiles(
        "user",
        workload.read_users(),
        &m.pools,
        &ProfileGenConfig {
            selections: PROFILE_SELECTIONS,
            seed: PROFILE_SEED,
            ..Default::default()
        },
    );
    let users: Vec<UserId> = profiles.iter().map(|p| UserId::from(p.user.as_str())).collect();

    let (service, write_targets, conns, cluster) = match workload {
        Workload::HotServe | Workload::ColdPersonalize => {
            let service = service_for(m.db);
            for p in &profiles {
                service.install_profile(p.clone()).map_err(|e| e.to_string())?;
            }
            let conns = (0..CLIENTS).map(|_| Conn::InProc).collect();
            (service, Vec::new(), conns, None)
        }
        Workload::MutateTcp => {
            // The follower gets its own copy of the same database. Both
            // nodes start from the same installed profiles rather than
            // replaying them as 60 fsync'd mutations per user: set-up time
            // then tracks data and server start-up, not the disk's fsync
            // latency, which the timed writes measure.
            let follower_db = generate(m.config.clone()).db;
            let leader_dir = work_dir.join(format!("leader-{tag}"));
            let follower_dir = work_dir.join(format!("follower-{tag}"));
            for dir in [&leader_dir, &follower_dir] {
                let _ = std::fs::remove_dir_all(dir);
            }
            let follower_service = service_for(follower_db);
            let service = service_for(m.db);
            for p in &profiles {
                for s in [&service, &follower_service] {
                    s.install_profile(p.clone()).map_err(|e| e.to_string())?;
                }
            }
            let (follower, follower_node) =
                start_node(&follower_service, &follower_dir, "follower", Role::Follower, vec![])?;
            let (leader, leader_node) = start_node(
                &service,
                &leader_dir,
                "leader",
                Role::Leader,
                vec![follower.addr().to_string()],
            )?;
            let mut conns = Vec::new();
            for p in &profiles {
                let client = Client::connect(leader.addr(), ClientConfig::new(p.user.as_str()))
                    .map_err(|e| format!("connect: {e}"))?;
                conns.push(Conn::Tcp(Box::new(client)));
            }
            let cluster = Cluster {
                leader,
                follower,
                leader_node,
                follower_node,
                follower_service,
                leader_dir,
                follower_dir,
            };
            (service, profiles.iter().map(selections_of).collect(), conns, Some(cluster))
        }
    };
    let canonical = texts
        .iter()
        .map(|t| service.prepare_sql(t).map_err(|e| format!("prepare `{t}`: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fixture = Fixture {
        workload,
        service,
        users,
        write_targets,
        texts,
        canonical,
        generated_texts,
        conns,
        cluster,
    };
    warm_up(&mut fixture)?;
    Ok(fixture)
}

/// Warm what a long-running server would have warm: for hot_serve every
/// read key; for mutate_tcp each client's own keys. cold_personalize keeps
/// only the prepared cache warm (set-up prepared every text), since any
/// read key it warmed would be a plan-cache hit.
fn warm_up(f: &mut Fixture) -> Result<(), String> {
    let check = |r: pqp_service::Result<pqp_service::Answer>, sql: &str| {
        r.map(|_| ()).map_err(|e| format!("warm-up `{sql}`: {e}"))
    };
    match f.workload {
        Workload::HotServe => {
            for user in &f.users {
                let session = f.service.session(user.clone());
                for sql in &f.texts {
                    check(session.query(sql), sql)?;
                }
            }
        }
        Workload::ColdPersonalize => {}
        Workload::MutateTcp => {
            for conn in &mut f.conns {
                if let Conn::Tcp(client) = conn {
                    for sql in &f.texts {
                        check(client.query(sql), sql)?;
                    }
                }
            }
        }
    }
    Ok(())
}

fn client_rng(seed: u64, client: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1))
}

/// A write moves one preference's degree to within `DOI_NUDGE` of its
/// generated value: every write is a real update that bumps the epoch, but
/// the profile does not drift into a different top-K, so the cost of the
/// reads it invalidates stays that of the generated corpus.
fn write_op(rng: &mut SmallRng, targets: &[WriteTarget]) -> Op {
    let target = rng.gen_index(targets.len());
    let doi = targets[target].doi + DOI_NUDGE * (2.0 * rng.gen_f64() - 1.0);
    Op::Write { target: target as u16, doi: doi.clamp(0.01, 1.0) }
}

/// Every key of the cold workload once, in a seeded order. Client `c` takes
/// positions `c, c + CLIENTS, ...`, so in the interleaved global order a key
/// recurs only after every other key has been visited (and a client that
/// wraps around starts the same order again).
pub fn cold_order(seed: u64, users: usize, texts: usize) -> Vec<(u32, u16)> {
    let mut keys: Vec<(u32, u16)> =
        (0..users).flat_map(|u| (0..texts).map(move |t| (u as u32, t as u16))).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_index(i + 1));
    }
    keys
}

/// The operation sequence of every client.
pub fn sequences(f: &Fixture, seed: u64) -> Vec<Vec<Op>> {
    let user_zipf = Zipf::new(f.users.len(), ZIPF_S);
    let text_zipf = Zipf::new(f.texts.len(), ZIPF_S);
    let cold = match f.workload {
        Workload::ColdPersonalize => cold_order(seed, f.users.len(), f.texts.len()),
        _ => Vec::new(),
    };
    (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, c);
            let mut ops = Vec::new();
            match f.workload {
                Workload::HotServe => {
                    while ops.len() < SEQUENCE_LEN {
                        let user = user_zipf.sample(&mut rng) as u32;
                        ops.push(Op::Read { user, text: text_zipf.sample(&mut rng) as u16 });
                    }
                }
                Workload::ColdPersonalize => {
                    ops.extend(
                        cold.iter()
                            .skip(c)
                            .step_by(CLIENTS)
                            .map(|&(user, text)| Op::Read { user, text }),
                    );
                }
                Workload::MutateTcp => {
                    while ops.len() < SEQUENCE_LEN {
                        ops.push(if rng.gen_bool(WRITE_SHARE) {
                            write_op(&mut rng, &f.write_targets[c])
                        } else {
                            Op::Read { user: c as u32, text: text_zipf.sample(&mut rng) as u16 }
                        });
                    }
                }
            }
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn cold_keys_recur_only_after_more_than_a_plan_cache_of_others() {
        let (users, texts, capacity) = (1000, 16, 4096);
        let order = cold_order(7, users, texts);
        assert_eq!(order.len(), users * texts);
        // The interleaved global order of two clients, each wrapping once.
        let per_client: Vec<Vec<(u32, u16)>> = (0..CLIENTS)
            .map(|c| order.iter().skip(c).step_by(CLIENTS).copied().collect())
            .collect();
        let mut global = Vec::new();
        for round in 0..2 {
            for i in 0..per_client[0].len() {
                for ops in &per_client {
                    if let Some(&k) = ops.get(i) {
                        global.push((round, k));
                    }
                }
            }
        }
        let mut last: HashMap<(u32, u16), usize> = HashMap::new();
        let mut min_gap = usize::MAX;
        for (i, &(_, key)) in global.iter().enumerate() {
            if let Some(prev) = last.insert(key, i) {
                min_gap = min_gap.min(i - prev - 1);
            }
        }
        assert!(min_gap > capacity, "a key recurred after only {min_gap} others");
    }

    #[test]
    fn sequences_depend_only_on_the_seed() {
        let a = cold_order(3, 10, 4);
        assert_eq!(a, cold_order(3, 10, 4));
        assert_ne!(a, cold_order(4, 10, 4));
    }
}
