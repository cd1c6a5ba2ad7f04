// ResultStore: the cross-workflow materialized-output catalog (ReStore's
// repository, PVLDB 2012, adapted to the simulated DFS). Executed job
// outputs are snapshotted into an internal Dfs and indexed by the
// content-addressed keys of reuse/signature.h; later workflows that contain
// a logically-equal job (or a map-only prefix of one) are rewritten to scan
// the snapshot instead of recomputing it.
//
// Determinism contract: every byte of store state — snapshot ids, catalog
// contents, hit counters, eviction victims — is a pure function of the
// sequence of Register/Lookup/Pin calls. Recency uses a logical clock, not
// wall time, so repeated sessions evict identically.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "dfs/dfs.h"
#include "reuse/signature.h"

namespace stubby {

/// What a catalog entry stands for.
enum class ReuseKind {
  kJobOutput,       ///< one output dataset of a whole executed job
  kMapStream,       ///< output stream of a stateless map-only pipeline
  kWorkflowOutput,  ///< terminal output under optimizer-salted lineage
};

const char* ReuseKindName(ReuseKind kind);

/// Counters of one optimizer run's interaction with the store.
struct ReuseStats {
  uint64_t lookups = 0;         ///< catalog probes issued by the rewriter
  uint64_t whole_job_hits = 0;  ///< jobs replaced by stored-output scans
  uint64_t prefix_hits = 0;     ///< map-prefix (sub-job) rewrites
  uint64_t workflow_hits = 0;   ///< terminal outputs served in a full elision
  uint64_t jobs_elided = 0;     ///< jobs removed (hits + dead-code cleanup)
  uint64_t bytes_saved = 0;     ///< logical bytes served from snapshots
  uint64_t registered = 0;      ///< catalog entries added after execution

  /// Reuse-aware unit search (src/optimizer/search.cc): read-only store
  /// probes issued while enumerating candidates, rewritten candidates that
  /// were costed through the what-if engine, and units whose winner was a
  /// rewritten candidate.
  uint64_t search_probes = 0;
  uint64_t search_priced = 0;
  uint64_t search_won = 0;

  /// Always 0; perfbench/ reports them. Delete with the next perfbench/ change.
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;

  void Add(const ReuseStats& other);
  std::string ToString() const;
};

/// One catalog entry. Entries referencing the same snapshot share its
/// bytes (a job output registered under both a job-output key and a
/// workflow-output key is stored once).
struct StoredResult {
  CostKey key{0, 0};
  ReuseKind kind = ReuseKind::kJobOutput;
  std::string snapshot_id;
  uint64_t raw_bytes = 0;      ///< physical snapshot bytes (budget unit)
  uint64_t logical_bytes = 0;  ///< scaled bytes the snapshot stands for
  uint64_t logical_rows = 0;
  uint64_t hits = 0;
  uint64_t created = 0;    ///< logical clock at registration
  uint64_t last_used = 0;  ///< logical clock at last Lookup
};

/// How EnforceBudget picks eviction victims. Both policies are pure
/// functions of the logical-clock store state, so eviction sequences are
/// deterministic and replayable.
enum class EvictionPolicy {
  /// Unpinned entry with the oldest last_used; ties break on the key.
  kLru,
  /// Benefit-weighted (ReStore §6): evict the entry with the lowest
  ///   benefit = logical_bytes * (hits + 1) / (raw_bytes * (age + 1)),
  /// age = clock - last_used — i.e. bytes_saved x hit rate / raw storage
  /// cost. Compared exactly via ExactFractionCompare (no floating point);
  /// ties break on older last_used, then on the key.
  kBenefitWeighted,
};

const char* EvictionPolicyName(EvictionPolicy policy);

/// Exact three-way comparison (-1/0/1) of a_num/a_den vs b_num/b_den for
/// nonnegative numerators and positive denominators. Each operand may fill
/// all 128 bits (the benefit fractions are 64x64-bit products), so the
/// comparison uses continued-fraction descent instead of cross-
/// multiplication, which could exceed 2^128 and wrap.
int ExactFractionCompare(unsigned __int128 a_num, unsigned __int128 a_den,
                         unsigned __int128 b_num, unsigned __int128 b_den);

/// Inverse of EvictionPolicyName ("lru" / "benefit"); InvalidArgument on
/// anything else.
Result<EvictionPolicy> EvictionPolicyFromName(const std::string& name);

/// The ordinal n of a snapshot id "rs/<n>", the only form Register mints
/// (decimal, no sign, no leading zeros); InvalidArgument otherwise.
Result<uint64_t> SnapshotOrdinal(const std::string& id);

/// One recorded ResultStore operation (see StoreJournal).
struct StoreOp {
  enum class Kind : uint8_t { kPeek, kLookup, kRegister, kPin, kUnpin };
  Kind kind = Kind::kPeek;
  CostKey key{0, 0};        ///< kPeek / kLookup: probed key
  bool hit = false;         ///< kPeek / kLookup: probe answer
  std::string snapshot_id;  ///< probe answer / pin target / register result
  bool fresh = false;       ///< kRegister: a new snapshot was created
  DatasetPtr dataset;       ///< kRegister: retained clone of the payload
  std::vector<std::pair<CostKey, ReuseKind>> reg_keys;  ///< kRegister
};

/// Ordered record of every public-API operation issued against a store —
/// the isolation substrate of the stubbyd service (src/service/): a request
/// speculates against a private copy of the shared store with a journal
/// attached, and at commit time the journal is replayed against the
/// authoritative store in submission order, validating every recorded probe
/// answer along the way. Appends are mutex-guarded because probes can be
/// issued from parallel search tasks; probe order within a mutation-free
/// window is not significant (probes do not mutate, so validating them is
/// order-independent there), and mutations only occur in serial sections.
class StoreJournal {
 public:
  void Append(StoreOp op) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(std::move(op));
  }
  const std::vector<StoreOp>& ops() const { return ops_; }

 private:
  std::mutex mu_;
  std::vector<StoreOp> ops_;
};

/// Byte-budgeted, deterministically-evicting snapshot catalog.
class ResultStore {
 public:
  struct Options {
    /// Physical snapshot-byte budget; 0 = unlimited. Eviction drops
    /// unpinned entries chosen by `policy` until within budget, then
    /// garbage-collects snapshots no surviving entry references.
    uint64_t byte_budget = 0;
    EvictionPolicy policy = EvictionPolicy::kLru;
  };

  ResultStore() : ResultStore(Options{}) {}
  explicit ResultStore(Options options) : options_(options) {}

  // Copies and moves carry the full catalog state but never the attached
  // journal: a journal observes one particular store object (stubbyd's
  // speculative working copies each attach their own), and silently
  // inheriting it would interleave two stores' operation streams.
  ResultStore(const ResultStore&) = default;
  ResultStore(ResultStore&&) = default;
  ResultStore& operator=(const ResultStore&) = default;
  ResultStore& operator=(ResultStore&&) = default;

  /// Snapshots `ds` into the store and registers it under every key in
  /// `keys`. Keys already present keep their existing entry (first
  /// registration wins — deterministic under replay). Returns the snapshot
  /// id serving the keys (the existing entry's snapshot when nothing new
  /// was added), or "" when `keys` is empty.
  std::string Register(const StoredDataset& ds,
                       const std::vector<std::pair<CostKey, ReuseKind>>& keys);

  /// Read-only probe: no hit count, no recency update. Use while planning.
  const StoredResult* Peek(const CostKey& key) const;

  /// Committed lookup: bumps the hit count and LRU recency.
  const StoredResult* Lookup(const CostKey& key);

  /// The snapshot dataset behind an entry.
  Result<DatasetPtr> OpenSnapshot(const std::string& snapshot_id) const;

  /// Pin/unpin a snapshot against eviction (refcounted). Rewritten plans
  /// pin the snapshots they scan until the session has staged and executed
  /// them; eviction never collects a pinned snapshot.
  void Pin(const std::string& snapshot_id);
  void Unpin(const std::string& snapshot_id);

  /// Snapshots currently pinned (distinct ids, not refcounts). Pins are
  /// session-lifetime: a balanced Pin/Unpin discipline leaves this at zero
  /// between session runs.
  size_t num_pins() const { return pins_.size(); }

  const Options& options() const { return options_; }

  /// Swaps the budget/policy (e.g. after LoadFromFile, to apply a CLI
  /// override on top of the persisted options) and re-enforces the budget.
  void set_options(Options options);

  /// Attaches (nullptr: detaches) an operation journal; borrowed, must
  /// outlive the attachment. Every subsequent Peek/Lookup/Register/Pin/
  /// Unpin is appended.
  /// Internal budget enforcement is not journaled — it is a deterministic
  /// consequence of the Register that triggered it.
  void set_journal(StoreJournal* journal) { journal_.ptr = journal; }

  /// Evicts policy-ranked victims drawn only from entries whose snapshot is
  /// in `owned` until those snapshots' total raw bytes fit `budget`
  /// (0 = unlimited). The stubbyd per-tenant budget layer: `owned` is the
  /// set of snapshot ids a tenant's requests created. Returns the number of
  /// entries evicted; counts into `evictions()` like global enforcement.
  uint64_t EnforceBudgetOn(const std::set<std::string>& owned,
                           uint64_t budget);

  /// Total raw bytes of the listed snapshots (missing ids contribute 0).
  uint64_t SnapshotBytes(const std::set<std::string>& ids) const;

  bool HasSnapshot(const std::string& id) const {
    return snapshots_.Exists(id);
  }

  /// Ordinal the next created snapshot will use ("rs/<ordinal>"). Lets
  /// callers attribute snapshot creation to a window of calls without a
  /// journal: ids minted in the window are exactly rs/[before, after).
  uint64_t next_snapshot_id() const { return next_snapshot_; }

  const std::map<CostKey, StoredResult>& catalog() const { return entries_; }
  size_t num_entries() const { return entries_.size(); }
  size_t num_snapshots() const { return snapshots_.size(); }
  uint64_t stored_bytes() const { return snapshots_.TotalRawBytes(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t total_hits() const;

  /// Catalog (and snapshot contents) as JSON, using the same row/layout
  /// encodings as workflow/serialize.cc so exported artifacts compose.
  Json ToJson() const;
  std::string Serialize() const;

  /// Restores a store — catalog, snapshots, clock, pins excluded (pins are
  /// session-lifetime only). Keys, ids, and counters round-trip exactly.
  static Result<ResultStore> FromJson(const Json& json);
  static Result<ResultStore> Deserialize(const std::string& text);

  /// Exact catalog persistence across processes: SaveToFile writes
  /// Serialize() to `path`; LoadFromFile restores it via Deserialize. A
  /// reloaded store produces bit-identical hit/eviction sequences.
  /// SaveToFile is crash-safe: the document is written to `path` + ".tmp"
  /// and renamed into place, so a failure mid-save leaves any existing
  /// catalog at `path` untouched and loadable.
  Status SaveToFile(const std::string& path) const;
  static Result<ResultStore> LoadFromFile(const std::string& path);

 private:
  /// Borrowed journal pointer whose copy/move semantics never transfer it
  /// between store objects (see the special-member comment above); on
  /// assignment the destination keeps its own attachment.
  struct JournalRef {
    StoreJournal* ptr = nullptr;
    JournalRef() = default;
    JournalRef(const JournalRef&) {}
    JournalRef(JournalRef&&) noexcept {}
    JournalRef& operator=(const JournalRef&) { return *this; }
    JournalRef& operator=(JournalRef&&) noexcept { return *this; }
  };

  void EnforceBudget();
  /// Lowest-ranked unpinned entry under the active policy among entries
  /// satisfying `eligible`; nullptr when none qualifies. Ties break on the
  /// (ordered) key, so victim sequences are deterministic.
  const StoredResult* PickVictim(
      const std::function<bool(const StoredResult&)>& eligible) const;
  /// Erases one entry, counts the eviction, and garbage-collects snapshots
  /// no surviving entry references and no pin holds.
  void EvictEntry(const CostKey& key);
  void RecordProbe(StoreOp::Kind kind, const CostKey& key,
                   const StoredResult* result) const;

  Options options_;
  std::map<CostKey, StoredResult> entries_;
  Dfs snapshots_;
  std::map<std::string, int> pins_;
  uint64_t clock_ = 0;
  uint64_t next_snapshot_ = 0;
  uint64_t evictions_ = 0;
  JournalRef journal_;
};

/// Deep copy of a dataset under a new id (partitions, scale, layout).
DatasetPtr CloneDataset(const StoredDataset& ds, std::string new_id);

/// Bit-exact row-sequence equality: same length, every value the same type
/// and bit pattern (doubles compared by bits, not tolerance). This is the
/// reuse subsystem's output-equivalence contract.
bool RowsBitIdentical(const std::vector<Row>& a, const std::vector<Row>& b);

}  // namespace stubby
