#include "reuse/result_store.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/strings.h"
#include "workflow/serialize.h"

namespace stubby {

const char* ReuseKindName(ReuseKind kind) {
  switch (kind) {
    case ReuseKind::kJobOutput:
      return "job_output";
    case ReuseKind::kMapStream:
      return "map_stream";
    case ReuseKind::kWorkflowOutput:
      return "workflow_output";
  }
  return "unknown";
}

namespace {

Result<ReuseKind> ReuseKindFromName(const std::string& name) {
  if (name == "job_output") return ReuseKind::kJobOutput;
  if (name == "map_stream") return ReuseKind::kMapStream;
  if (name == "workflow_output") return ReuseKind::kWorkflowOutput;
  return Status::InvalidArgument("unknown reuse kind '" + name + "'");
}

Result<CostKey> CostKeyFromHex(const std::string& hex) {
  if (hex.size() != 32) {
    return Status::InvalidArgument("bad key encoding '" + hex + "'");
  }
  CostKey key{0, 0};
  for (size_t i = 0; i < 32; ++i) {
    char c = hex[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("bad key encoding '" + hex + "'");
    }
    uint64_t& lane = i < 16 ? key.first : key.second;
    lane = (lane << 4) | digit;
  }
  return key;
}

/// Reads an unsigned counter of a catalog document. An absent field reads
/// 0; a present one must be a finite, nonnegative integer below 2^64 (a
/// cast of anything else to uint64_t is undefined or silently truncates).
Result<uint64_t> CatalogCounter(const Json& json, const std::string& field) {
  const Json* v = json.Find(field);
  if (v == nullptr) return uint64_t{0};
  const double d = v->is_number() ? v->AsNumber() : -1.0;
  if (!std::isfinite(d) || d < 0 || d != std::floor(d) || d >= 0x1p64) {
    return Status::InvalidArgument("catalog field '" + field +
                                   "' is not a nonnegative integer");
  }
  return static_cast<uint64_t>(d);
}

}  // namespace

Result<uint64_t> SnapshotOrdinal(const std::string& id) {
  auto bad = [&id] {
    return Status::InvalidArgument("bad snapshot id '" + id + "'");
  };
  if (id.size() < 4 || id.compare(0, 3, "rs/") != 0) return bad();
  if (id.size() > 4 && id[3] == '0') return bad();
  uint64_t n = 0;
  for (size_t i = 3; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return bad();
    const uint64_t digit = static_cast<uint64_t>(id[i] - '0');
    if (n > (UINT64_MAX - digit) / 10) return bad();
    n = n * 10 + digit;
  }
  return n;
}

Result<EvictionPolicy> EvictionPolicyFromName(const std::string& name) {
  if (name == "lru") return EvictionPolicy::kLru;
  if (name == "benefit") return EvictionPolicy::kBenefitWeighted;
  return Status::InvalidArgument("unknown eviction policy '" + name + "'");
}

int ExactFractionCompare(unsigned __int128 a_num, unsigned __int128 a_den,
                         unsigned __int128 b_num, unsigned __int128 b_den) {
  while (true) {
    const unsigned __int128 qa = a_num / a_den;
    const unsigned __int128 qb = b_num / b_den;
    if (qa != qb) return qa < qb ? -1 : 1;
    a_num -= qa * a_den;
    b_num -= qb * b_den;
    if (a_num == 0 && b_num == 0) return 0;
    if (a_num == 0) return -1;
    if (b_num == 0) return 1;
    // Both fractional parts are proper: a_num/a_den < b_num/b_den iff
    // b_den/b_num < a_den/a_num, and the Euclid-style descent terminates.
    const unsigned __int128 next_a_num = b_den;
    const unsigned __int128 next_a_den = b_num;
    const unsigned __int128 next_b_num = a_den;
    const unsigned __int128 next_b_den = a_num;
    a_num = next_a_num;
    a_den = next_a_den;
    b_num = next_b_num;
    b_den = next_b_den;
  }
}

void ReuseStats::Add(const ReuseStats& other) {
  lookups += other.lookups;
  whole_job_hits += other.whole_job_hits;
  prefix_hits += other.prefix_hits;
  workflow_hits += other.workflow_hits;
  jobs_elided += other.jobs_elided;
  bytes_saved += other.bytes_saved;
  registered += other.registered;
  search_probes += other.search_probes;
  search_priced += other.search_priced;
  search_won += other.search_won;
}

std::string ReuseStats::ToString() const {
  return StrFormat(
      "lookups=%llu whole_job=%llu prefix=%llu workflow=%llu elided=%llu "
      "bytes_saved=%llu registered=%llu probes=%llu priced=%llu won=%llu",
      (unsigned long long)lookups, (unsigned long long)whole_job_hits,
      (unsigned long long)prefix_hits, (unsigned long long)workflow_hits,
      (unsigned long long)jobs_elided, (unsigned long long)bytes_saved,
      (unsigned long long)registered, (unsigned long long)search_probes,
      (unsigned long long)search_priced, (unsigned long long)search_won);
}

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kBenefitWeighted:
      return "benefit";
  }
  return "unknown";
}

DatasetPtr CloneDataset(const StoredDataset& ds, std::string new_id) {
  auto clone = std::make_shared<StoredDataset>(std::move(new_id), ds.schema(),
                                               ds.layout());
  for (size_t p = 0; p < ds.num_partitions(); ++p) {
    // Payloads are immutable shared representations, so cloning a dataset
    // shares them instead of copying every row.
    clone->AddPartition(ds.partition_data(p));
  }
  clone->set_logical_scale(ds.logical_scale());
  return clone;
}

bool RowsBitIdentical(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Value& va = a[i][j];
      const Value& vb = b[i][j];
      if (va.is_int()) {
        if (!vb.is_int() || va.AsInt() != vb.AsInt()) return false;
      } else if (va.is_double()) {
        if (!vb.is_double() || std::bit_cast<uint64_t>(va.AsDouble()) !=
                                   std::bit_cast<uint64_t>(vb.AsDouble())) {
          return false;
        }
      } else {
        if (!vb.is_string() || va.AsString() != vb.AsString()) return false;
      }
    }
  }
  return true;
}

std::string ResultStore::Register(
    const StoredDataset& ds,
    const std::vector<std::pair<CostKey, ReuseKind>>& keys) {
  if (keys.empty()) return "";
  std::vector<std::pair<CostKey, ReuseKind>> fresh;
  for (const auto& [key, kind] : keys) {
    if (entries_.count(key) == 0) fresh.emplace_back(key, kind);
  }
  if (fresh.empty()) {
    const std::string& existing = entries_.at(keys.front().first).snapshot_id;
    if (journal_.ptr != nullptr) {
      StoreOp op;
      op.kind = StoreOp::Kind::kRegister;
      op.snapshot_id = existing;
      op.dataset = CloneDataset(ds, ds.id());
      op.reg_keys = keys;
      journal_.ptr->Append(std::move(op));
    }
    return existing;
  }

  std::string snapshot_id = "rs/" + std::to_string(next_snapshot_++);
  DatasetPtr snapshot = CloneDataset(ds, snapshot_id);
  snapshots_.PutOrReplace(snapshot);
  ++clock_;
  for (const auto& [key, kind] : fresh) {
    StoredResult entry;
    entry.key = key;
    entry.kind = kind;
    entry.snapshot_id = snapshot_id;
    entry.raw_bytes = snapshot->raw_bytes();
    entry.logical_bytes = snapshot->logical_bytes();
    entry.logical_rows = snapshot->logical_rows();
    entry.created = clock_;
    entry.last_used = clock_;
    entries_.emplace(key, std::move(entry));
  }
  if (journal_.ptr != nullptr) {
    StoreOp op;
    op.kind = StoreOp::Kind::kRegister;
    op.snapshot_id = snapshot_id;
    op.fresh = true;
    op.dataset = CloneDataset(ds, ds.id());
    op.reg_keys = keys;
    journal_.ptr->Append(std::move(op));
  }
  EnforceBudget();
  return snapshot_id;
}

void ResultStore::RecordProbe(StoreOp::Kind kind, const CostKey& key,
                              const StoredResult* result) const {
  if (journal_.ptr == nullptr) return;
  StoreOp op;
  op.kind = kind;
  op.key = key;
  op.hit = result != nullptr;
  if (result != nullptr) op.snapshot_id = result->snapshot_id;
  journal_.ptr->Append(std::move(op));
}

const StoredResult* ResultStore::Peek(const CostKey& key) const {
  auto it = entries_.find(key);
  const StoredResult* result = it == entries_.end() ? nullptr : &it->second;
  RecordProbe(StoreOp::Kind::kPeek, key, result);
  return result;
}

const StoredResult* ResultStore::Lookup(const CostKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    RecordProbe(StoreOp::Kind::kLookup, key, nullptr);
    return nullptr;
  }
  ++clock_;
  it->second.hits += 1;
  it->second.last_used = clock_;
  RecordProbe(StoreOp::Kind::kLookup, key, &it->second);
  return &it->second;
}

Result<DatasetPtr> ResultStore::OpenSnapshot(
    const std::string& snapshot_id) const {
  return snapshots_.Get(snapshot_id);
}

void ResultStore::Pin(const std::string& snapshot_id) {
  pins_[snapshot_id]++;
  if (journal_.ptr != nullptr) {
    StoreOp op;
    op.kind = StoreOp::Kind::kPin;
    op.snapshot_id = snapshot_id;
    journal_.ptr->Append(std::move(op));
  }
}

void ResultStore::Unpin(const std::string& snapshot_id) {
  if (journal_.ptr != nullptr) {
    StoreOp op;
    op.kind = StoreOp::Kind::kUnpin;
    op.snapshot_id = snapshot_id;
    journal_.ptr->Append(std::move(op));
  }
  auto it = pins_.find(snapshot_id);
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

uint64_t ResultStore::total_hits() const {
  uint64_t total = 0;
  for (const auto& [key, e] : entries_) total += e.hits;
  return total;
}

void ResultStore::set_options(Options options) {
  options_ = options;
  EnforceBudget();
}

const StoredResult* ResultStore::PickVictim(
    const std::function<bool(const StoredResult&)>& eligible) const {
  // Benefit of keeping an entry: logical_bytes * (hits + 1) per unit of
  // raw storage and logical idle time. Compared as exact integer fractions
  // (num/den); lowest benefit evicts first. Each operand is a 64x64-bit
  // product, so the fractions are compared by continued-fraction descent
  // rather than cross-multiplication, which could exceed 128 bits and wrap.
  // The +1 terms keep fresh, never-hit entries comparable and the
  // denominators nonzero.
  auto benefit_less = [this](const StoredResult& a,
                             const StoredResult& b) -> bool {
    const unsigned __int128 a_num =
        static_cast<unsigned __int128>(a.logical_bytes) * (a.hits + 1);
    const unsigned __int128 b_num =
        static_cast<unsigned __int128>(b.logical_bytes) * (b.hits + 1);
    const unsigned __int128 a_den =
        static_cast<unsigned __int128>(a.raw_bytes) *
        (clock_ - a.last_used + 1);
    const unsigned __int128 b_den =
        static_cast<unsigned __int128>(b.raw_bytes) *
        (clock_ - b.last_used + 1);
    // A zero denominator (zero raw bytes) means free storage: infinite
    // benefit, never the eviction victim.
    int cmp;
    if (a_den == 0 && b_den == 0) {
      cmp = 0;
    } else if (a_den == 0 || b_den == 0) {
      cmp = a_den == 0 ? 1 : -1;
    } else {
      cmp = ExactFractionCompare(a_num, a_den, b_num, b_den);
    }
    if (cmp != 0) return cmp < 0;
    return a.last_used < b.last_used;  // then ties break on the key
  };
  const StoredResult* victim = nullptr;
  for (const auto& [key, e] : entries_) {
    if (pins_.count(e.snapshot_id)) continue;
    if (!eligible(e)) continue;
    if (victim == nullptr) {
      victim = &e;
    } else if (options_.policy == EvictionPolicy::kBenefitWeighted) {
      if (benefit_less(e, *victim)) victim = &e;
    } else if (e.last_used < victim->last_used) {
      victim = &e;
    }
  }
  return victim;
}

void ResultStore::EvictEntry(const CostKey& key) {
  entries_.erase(key);
  ++evictions_;
  // Collect snapshots no surviving entry references and no pin holds.
  std::set<std::string> live;
  for (const auto& [k, e] : entries_) live.insert(e.snapshot_id);
  for (const auto& [id, refs] : pins_) live.insert(id);
  snapshots_.Collect(live);
}

void ResultStore::EnforceBudget() {
  if (options_.byte_budget == 0) return;
  while (stored_bytes() > options_.byte_budget) {
    const StoredResult* victim =
        PickVictim([](const StoredResult&) { return true; });
    if (victim == nullptr) return;  // everything left is pinned
    EvictEntry(victim->key);
  }
}

uint64_t ResultStore::EnforceBudgetOn(const std::set<std::string>& owned,
                                      uint64_t budget) {
  if (budget == 0) return 0;
  uint64_t evicted = 0;
  while (SnapshotBytes(owned) > budget) {
    const StoredResult* victim = PickVictim([&](const StoredResult& e) {
      return owned.count(e.snapshot_id) > 0;
    });
    // No eligible entry (all remaining owned snapshots pinned, or their
    // entries already gone): stop rather than loop.
    if (victim == nullptr) break;
    EvictEntry(victim->key);
    ++evicted;
  }
  return evicted;
}

uint64_t ResultStore::SnapshotBytes(const std::set<std::string>& ids) const {
  uint64_t total = 0;
  for (const std::string& id : ids) {
    Result<DatasetPtr> ds = snapshots_.Get(id);
    if (ds.ok()) total += (*ds)->raw_bytes();
  }
  return total;
}

Json ResultStore::ToJson() const {
  Json root = Json::Object();
  root["format"] = "stubby-reuse-catalog";
  root["version"] = 1;
  root["clock"] = clock_;
  root["next_snapshot"] = next_snapshot_;
  root["evictions"] = evictions_;
  root["byte_budget"] = options_.byte_budget;
  root["policy"] = EvictionPolicyName(options_.policy);

  Json entries = Json::Array();
  for (const auto& [key, e] : entries_) {
    Json j = Json::Object();
    j["key"] = CostKeyToHex(key);
    j["kind"] = ReuseKindName(e.kind);
    j["snapshot"] = e.snapshot_id;
    j["raw_bytes"] = e.raw_bytes;
    j["logical_bytes"] = e.logical_bytes;
    j["logical_rows"] = e.logical_rows;
    j["hits"] = e.hits;
    j["created"] = e.created;
    j["last_used"] = e.last_used;
    entries.Append(std::move(j));
  }
  root["entries"] = std::move(entries);

  Json snapshots = Json::Array();
  for (const std::string& id : snapshots_.Ids()) {
    DatasetPtr ds = *snapshots_.Get(id);
    Json j = Json::Object();
    j["id"] = id;
    Json schema = Json::Array();
    for (const auto& f : ds->schema().fields()) schema.Append(f);
    j["schema"] = std::move(schema);
    j["layout"] = LayoutToJson(ds->layout());
    j["logical_scale"] = ds->logical_scale();
    Json parts = Json::Array();
    for (size_t p = 0; p < ds->num_partitions(); ++p) {
      Json rows = Json::Array();
      for (const Row& r : ds->partition(p)) rows.Append(RowToJson(r));
      parts.Append(std::move(rows));
    }
    j["partitions"] = std::move(parts);
    snapshots.Append(std::move(j));
  }
  root["snapshots"] = std::move(snapshots);
  return root;
}

std::string ResultStore::Serialize() const { return ToJson().Dump(2); }

Result<ResultStore> ResultStore::FromJson(const Json& json) {
  if (json.GetString("format") != "stubby-reuse-catalog") {
    return Status::InvalidArgument("not a stubby-reuse-catalog document");
  }
  ResultStore store;
  STUBBY_ASSIGN_OR_RETURN(store.clock_, CatalogCounter(json, "clock"));
  STUBBY_ASSIGN_OR_RETURN(store.next_snapshot_,
                          CatalogCounter(json, "next_snapshot"));
  STUBBY_ASSIGN_OR_RETURN(store.evictions_, CatalogCounter(json, "evictions"));
  STUBBY_ASSIGN_OR_RETURN(store.options_.byte_budget,
                          CatalogCounter(json, "byte_budget"));
  if (const Json* policy = json.Find("policy"); policy != nullptr) {
    STUBBY_ASSIGN_OR_RETURN(store.options_.policy,
                            EvictionPolicyFromName(policy->AsString()));
  }

  const Json* snapshots = json.Find("snapshots");
  if (snapshots != nullptr && snapshots->is_array()) {
    for (const Json& j : snapshots->items()) {
      std::string id = j.GetString("id");
      // Register mints rs/<next_snapshot> and replaces whatever holds that
      // id, so an ordinal at or past next_snapshot would let a later
      // registration overwrite a live snapshot.
      STUBBY_ASSIGN_OR_RETURN(uint64_t ordinal, SnapshotOrdinal(id));
      if (ordinal >= store.next_snapshot_) {
        return Status::InvalidArgument(
            "snapshot '" + id + "' is not below next_snapshot " +
            std::to_string(store.next_snapshot_));
      }
      if (store.snapshots_.Exists(id)) {
        return Status::InvalidArgument("duplicate snapshot '" + id + "'");
      }
      std::vector<std::string> fields;
      if (const Json* schema = j.Find("schema"); schema != nullptr) {
        for (const Json& f : schema->items()) fields.push_back(f.AsString());
      }
      Layout layout;
      if (const Json* l = j.Find("layout"); l != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(layout, LayoutFromJson(*l));
      }
      auto ds = std::make_shared<StoredDataset>(id, Schema(fields), layout);
      if (const Json* parts = j.Find("partitions"); parts != nullptr) {
        for (const Json& part : parts->items()) {
          std::vector<Row> rows;
          for (const Json& r : part.items()) {
            STUBBY_ASSIGN_OR_RETURN(Row row, RowFromJson(r));
            rows.push_back(std::move(row));
          }
          ds->AddPartition(std::move(rows));
        }
      }
      ds->set_logical_scale(j.GetNumber("logical_scale", 1.0));
      store.snapshots_.PutOrReplace(std::move(ds));
    }
  }

  const Json* entries = json.Find("entries");
  if (entries != nullptr && entries->is_array()) {
    for (const Json& j : entries->items()) {
      StoredResult e;
      STUBBY_ASSIGN_OR_RETURN(e.key, CostKeyFromHex(j.GetString("key")));
      STUBBY_ASSIGN_OR_RETURN(e.kind, ReuseKindFromName(j.GetString("kind")));
      e.snapshot_id = j.GetString("snapshot");
      STUBBY_ASSIGN_OR_RETURN(e.raw_bytes, CatalogCounter(j, "raw_bytes"));
      STUBBY_ASSIGN_OR_RETURN(e.logical_bytes,
                              CatalogCounter(j, "logical_bytes"));
      STUBBY_ASSIGN_OR_RETURN(e.logical_rows,
                              CatalogCounter(j, "logical_rows"));
      STUBBY_ASSIGN_OR_RETURN(e.hits, CatalogCounter(j, "hits"));
      STUBBY_ASSIGN_OR_RETURN(e.created, CatalogCounter(j, "created"));
      STUBBY_ASSIGN_OR_RETURN(e.last_used, CatalogCounter(j, "last_used"));
      if (!store.snapshots_.Exists(e.snapshot_id)) {
        return Status::InvalidArgument("entry references missing snapshot '" +
                                       e.snapshot_id + "'");
      }
      store.entries_.emplace(e.key, std::move(e));
    }
  }
  return store;
}

Result<ResultStore> ResultStore::Deserialize(const std::string& text) {
  STUBBY_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return FromJson(json);
}

Status ResultStore::SaveToFile(const std::string& path) const {
  // Crash safety: write the full document to a sibling temp file, flush it,
  // then rename over `path`. rename(2) is atomic within a filesystem, so a
  // crash or failure at any point leaves the previous catalog intact — the
  // reader sees either the old complete document or the new one, never a
  // torn prefix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + tmp + "' for writing");
  }
  const std::string text = Serialize();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' over '" + path +
                            "'");
  }
  return Status::OK();
}

Result<ResultStore> ResultStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for reading");
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on '" + path + "'");
  return Deserialize(text);
}

}  // namespace stubby
