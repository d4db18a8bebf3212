//! The four workloads: their data, their seeded op sequences, and the
//! oracle each answer is checked against.
//!
//! Services receive only generated keys, offsets and expressions; op `i`
//! of a run is a pure function of `(seed, i)`, so any thread can claim
//! the next index and two runs with one seed issue the same ops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dais::core::{AbstractName, DaisClient};
use dais::dair::{RelationalService, SqlClient};
use dais::daix::{XmlClient, XmlCollectionResource, XmlService, XmlServiceOptions};
use dais::federation::{FleetOptions, RelationalFleet, ShardScheme};
use dais::soap::CallError;
use dais::sql::{Database, Rowset, Value};
use dais::xmldb::XmlDatabase;
use dais_bench::workload::{populate_books, populate_items};
use dais_util::rng::mix2;

use crate::deploy::Deployment;

pub const ITEM_ROWS: usize = 20_000;
pub const PAYLOAD_WIDTH: usize = 64;
pub const PAGE_ROWS: usize = 250;
pub const BOOKS: usize = 2_000;
/// `populate_books` cycles authors `Author 0` … `Author 16`.
pub const AUTHORS: u64 = 17;
pub const FED_ROWS: i64 = 2_000;
pub const FED_LIMIT: i64 = 100;
pub const SHARDS: usize = 16;
pub const REPLICAS: usize = 3;

pub const ROWSET_SQL: &str = "SELECT * FROM item ORDER BY id";
pub const POINT_READ: &str = "SELECT * FROM item WHERE id = ?";
pub const POINT_UPDATE: &str = "UPDATE item SET price = price + 1 WHERE id = ?";
pub const FED_SCHEMA: &str = "CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR)";
pub const FED_INSERT: &str = "INSERT INTO t VALUES (?, ?)";
pub const FED_SQL: &str = "SELECT k, v FROM t WHERE k >= ? ORDER BY k LIMIT 100";

const ITEMS_ADDR: &str = "bus://perf-items";
const BOOKS_ADDR: &str = "bus://perf-books";
const FLEET_AUTHORITY: &str = "perf-fleet";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TuplesPaged,
    PointMixed,
    XpathBooks,
    FederatedRange,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::TuplesPaged, Kind::PointMixed, Kind::XpathBooks, Kind::FederatedRange];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::TuplesPaged => "tuples_paged",
            Kind::PointMixed => "point_mixed",
            Kind::XpathBooks => "xpath_books",
            Kind::FederatedRange => "federated_range",
        }
    }

    /// The open-phase arrival rate (requests/s): a constant, about a
    /// quarter of the closed-phase throughput measured at the seed on two
    /// cores in the host's slow state, so that a run which loses half the
    /// cores to the hypervisor still does not overload. It is never
    /// derived from a measurement at run time, so a slower program meets
    /// the same offered load.
    pub fn open_rate(self) -> f64 {
        match self {
            Kind::TuplesPaged => 160.0,
            Kind::PointMixed => 160.0,
            Kind::XpathBooks => 60.0,
            Kind::FederatedRange => 80.0,
        }
    }

    /// Whether replies take the raw-bytes lane (`Bus::call_bytes_into`),
    /// which an installed executor parses and re-serialises.
    pub fn raw_lane(self) -> bool {
        self == Kind::TuplesPaged
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Page { start: usize },
    Read { id: i64 },
    Update { id: i64 },
    Xpath { author: u64 },
    Range { lo: i64 },
}

/// Op `i` of the sequence `seed` generates. Updates sit at every fifth
/// index, so the 80/20 read/write mix is exact in every prefix; range
/// scans start low enough that every scan returns a full `LIMIT`.
pub fn op(kind: Kind, seed: u64, i: u64) -> Op {
    let r = mix2(seed, i);
    match kind {
        Kind::TuplesPaged => Op::Page { start: (r % (ITEM_ROWS - PAGE_ROWS + 1) as u64) as usize },
        Kind::PointMixed => {
            let id = (r % ITEM_ROWS as u64) as i64;
            if i % 5 == 4 {
                Op::Update { id }
            } else {
                Op::Read { id }
            }
        }
        Kind::XpathBooks => Op::Xpath { author: r % AUTHORS },
        Kind::FederatedRange => Op::Range { lo: (r % (FED_ROWS - FED_LIMIT + 1) as u64) as i64 },
    }
}

pub fn xpath_expr(author: u64) -> String {
    format!("/book[author = 'Author {author}']/title")
}

/// FNV-1a over the display rendering of every cell, with row and cell
/// separators folded in (the E18 checksum): equal checksums mean equal
/// rows in equal order.
pub fn fnv(rowset: &Rowset) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &rowset.rows {
        for value in row {
            for b in value.to_display_string().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h = (h ^ 0x1f).wrapping_mul(PRIME);
        }
        h = (h ^ 0x1e).wrapping_mul(PRIME);
    }
    h
}

/// Where a workload's data lives on the serving side.
pub enum Backend {
    Items(Database),
    Books(XmlDatabase),
    Fleet(RelationalFleet),
}

enum Oracle {
    None,
    /// The rowset's full ordered table, queried directly.
    Window(Rowset),
    /// `SUM(price)` before the first op.
    Sum(f64),
    /// Direct `xpath_query` item count per author.
    Counts(Vec<usize>),
    /// Single-node checksum per range start.
    Checksums(Vec<u64>),
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// The consumer-facing endpoint address the ops call.
    pub address: String,
    pub target: AbstractName,
    pub backend: Backend,
    sql: Option<SqlClient>,
    xml: Option<XmlClient>,
    oracle: Oracle,
    acked_updates: AtomicU64,
}

impl Workload {
    /// Populate, launch and derive: everything `setup_s` times.
    pub fn launch(kind: Kind, seed: u64, dep: &Deployment) -> Workload {
        let consumer = dep.consumer.clone();
        let (address, target, backend, sql, xml) = match kind {
            Kind::TuplesPaged | Kind::PointMixed => {
                let db = Database::new("items");
                populate_items(&db, ITEM_ROWS, PAYLOAD_WIDTH);
                let svc = RelationalService::launch(
                    &dep.serving,
                    ITEMS_ADDR,
                    db.clone(),
                    Default::default(),
                );
                dep.route_serving_over_tcp();
                let client = SqlClient::builder().bus(consumer).address(ITEMS_ADDR).build();
                let target = if kind == Kind::TuplesPaged {
                    // Figure 5: SQLExecuteFactory, then SQLRowsetFactory.
                    let response = client
                        .execute_factory(&svc.db_resource, ROWSET_SQL, &[], None, None)
                        .expect("SQLExecuteFactory must derive a response resource");
                    let response = name_of(&response);
                    let rowset = client
                        .rowset_factory(&response, None, None)
                        .expect("SQLRowsetFactory must derive a rowset resource");
                    name_of(&rowset)
                } else {
                    svc.db_resource.clone()
                };
                (ITEMS_ADDR.to_string(), target, Backend::Items(db), Some(client), None)
            }
            Kind::XpathBooks => {
                let store = XmlDatabase::new("books");
                populate_books(&store, "books", BOOKS);
                let svc = XmlService::launch(
                    &dep.serving,
                    BOOKS_ADDR,
                    store.clone(),
                    XmlServiceOptions::default(),
                );
                let coll = svc.names.mint("collection");
                svc.ctx.add_resource(Arc::new(XmlCollectionResource::new(
                    coll.clone(),
                    store.clone(),
                    "books",
                )));
                dep.route_serving_over_tcp();
                let client = XmlClient::builder().bus(consumer).address(BOOKS_ADDR).build();
                (BOOKS_ADDR.to_string(), coll, Backend::Books(store), None, Some(client))
            }
            Kind::FederatedRange => {
                let fleet = RelationalFleet::launch(
                    &dep.serving,
                    FLEET_AUTHORITY,
                    FED_SCHEMA,
                    ShardScheme::Hash { column: "k".into() },
                    FleetOptions { shards: SHARDS, replicas: REPLICAS, ..FleetOptions::default() },
                );
                for k in 0..FED_ROWS {
                    fleet
                        .ingest(&Value::Int(k), FED_INSERT, &fed_row(k))
                        .expect("fleet row must ingest");
                }
                dep.route_serving_over_tcp();
                let client = SqlClient::builder().bus(consumer).resource(fleet.resource()).build();
                let address = fleet.resource().endpoint_address();
                let target = fleet.resource().resource().clone();
                (address, target, Backend::Fleet(fleet), Some(client), None)
            }
        };
        Workload {
            kind,
            seed,
            address,
            target,
            backend,
            sql,
            xml,
            oracle: Oracle::None,
            acked_updates: AtomicU64::new(0),
        }
    }

    /// Compute the oracle answers, directly against the data (outside
    /// the set-up timer, before the first op).
    pub fn prepare_oracle(&mut self) {
        self.oracle = match (&self.backend, self.kind) {
            (Backend::Items(db), Kind::TuplesPaged) => {
                let result = db.execute(ROWSET_SQL, &[]).expect("direct window query");
                Oracle::Window(result.rowset().expect("SELECT returns a rowset").clone())
            }
            (Backend::Items(db), _) => Oracle::Sum(price_sum(db)),
            (Backend::Books(store), _) => Oracle::Counts(
                (0..AUTHORS)
                    .map(|a| {
                        store.xpath_query("books", &xpath_expr(a)).expect("direct xpath").len()
                    })
                    .collect(),
            ),
            (Backend::Fleet(_), _) => {
                let single = single_node_twin();
                Oracle::Checksums(
                    (0..=FED_ROWS - FED_LIMIT)
                        .map(|lo| {
                            let result =
                                single.execute(FED_SQL, &[Value::Int(lo)]).expect("oracle scan");
                            fnv(result.rowset().expect("SELECT returns a rowset"))
                        })
                        .collect(),
                )
            }
        };
    }

    pub fn op(&self, i: u64) -> Op {
        op(self.kind, self.seed, i)
    }

    /// Run op `i` through the public client API and check the answer.
    /// `Ok` carries the rows (or XML items) returned; a failed call and
    /// a wrong answer are both `Err`.
    pub fn run(&self, i: u64) -> Result<usize, String> {
        let op = self.op(i);
        match op {
            Op::Page { start } => {
                let page = self.sql().get_tuples(&self.target, start, PAGE_ROWS).map_err(call)?;
                let Oracle::Window(all) = &self.oracle else { return Err(no_oracle()) };
                if page.rows.as_slice() != &all.rows[start..start + PAGE_ROWS] {
                    return Err(format!("page at {start} differs from the direct window"));
                }
                Ok(page.row_count())
            }
            Op::Read { id } => {
                let data = self
                    .sql()
                    .execute(&self.target, POINT_READ, &[Value::Int(id)])
                    .map_err(call)?;
                let rows = data.rowset().map(|r| r.rows.as_slice()).unwrap_or_default();
                if rows.len() != 1 || rows[0].first() != Some(&Value::Int(id)) {
                    return Err(format!("read of id {id} returned {} row(s)", rows.len()));
                }
                Ok(1)
            }
            Op::Update { id } => {
                let data = self
                    .sql()
                    .execute(&self.target, POINT_UPDATE, &[Value::Int(id)])
                    .map_err(call)?;
                if data.update_count() != Some(1) {
                    return Err(format!("update of id {id} counted {:?}", data.update_count()));
                }
                self.acked_updates.fetch_add(1, Ordering::Relaxed);
                Ok(0)
            }
            Op::Xpath { author } => {
                let items = self
                    .xml
                    .as_ref()
                    .expect("xpath workload has an XML client")
                    .xpath(&self.target, &xpath_expr(author))
                    .map_err(call)?;
                let Oracle::Counts(counts) = &self.oracle else { return Err(no_oracle()) };
                if items.len() != counts[author as usize] {
                    return Err(format!(
                        "author {author}: {} items, oracle {}",
                        items.len(),
                        counts[author as usize]
                    ));
                }
                Ok(items.len())
            }
            Op::Range { lo } => {
                let data =
                    self.sql().execute(&self.target, FED_SQL, &[Value::Int(lo)]).map_err(call)?;
                let rowset = data.rowset().ok_or("range scan returned no rowset")?;
                let Oracle::Checksums(sums) = &self.oracle else { return Err(no_oracle()) };
                if fnv(rowset) != sums[lo as usize] {
                    return Err(format!("range from {lo} differs from the single-node oracle"));
                }
                Ok(rowset.row_count())
            }
        }
    }

    /// End-of-run oracle: no acknowledged update may be lost. Prices
    /// carry cents, so a lost `+1` moves the sum by a whole unit while
    /// rounding drift stays far below the tolerance.
    pub fn final_check(&self) -> Result<(), String> {
        if let (Backend::Items(db), Oracle::Sum(initial)) = (&self.backend, &self.oracle) {
            let acked = self.acked_updates.load(Ordering::Relaxed) as f64;
            let now = price_sum(db);
            if (now - (initial + acked)).abs() > 0.25 {
                return Err(format!(
                    "SUM(price) is {now}, expected {initial} + {acked} acknowledged updates"
                ));
            }
        }
        Ok(())
    }

    fn sql(&self) -> &SqlClient {
        self.sql.as_ref().expect("relational workload has an SQL client")
    }
}

pub fn fed_row(k: i64) -> [Value; 2] {
    [Value::Int(k), Value::Str(format!("row{k:05}"))]
}

/// A single-node database holding the fleet's rows.
fn single_node_twin() -> Database {
    let db = Database::new("single");
    db.execute_script(FED_SCHEMA).expect("single-node schema");
    for k in 0..FED_ROWS {
        db.execute(FED_INSERT, &fed_row(k)).expect("single-node row");
    }
    db
}

fn price_sum(db: &Database) -> f64 {
    let result = db.execute("SELECT SUM(price) FROM item", &[]).expect("direct SUM");
    match result.rowset().and_then(|r| r.rows.first()).and_then(|row| row.first()) {
        Some(Value::Double(d)) => *d,
        Some(Value::Int(i)) => *i as f64,
        other => panic!("SUM(price) returned {other:?}"),
    }
}

fn name_of(epr: &dais::soap::Epr) -> AbstractName {
    AbstractName::new(epr.resource_abstract_name().expect("factory EPR names a resource"))
        .expect("factory EPR carries a valid abstract name")
}

fn call(e: CallError) -> String {
    format!("call failed: {e}")
}

fn no_oracle() -> String {
    "oracle not prepared".into()
}
