#include "workflow/serialize.h"

#include <cmath>
#include <limits>

namespace stubby {

namespace {

// ---------------------------------------------------------------------------
// Small building blocks
// ---------------------------------------------------------------------------

Json ValueToJson(const Value& v) {
  Json arr = Json::Array();
  if (v.is_int()) {
    arr.Append("i");
    arr.Append(v.AsInt());
  } else if (v.is_double()) {
    arr.Append("d");
    arr.Append(v.AsDouble());
  } else {
    arr.Append("s");
    arr.Append(v.AsString());
  }
  return arr;
}

Result<Value> ValueFromJson(const Json& j) {
  if (!j.is_array() || j.size() != 2 || !j.items()[0].is_string()) {
    return Status::InvalidArgument("bad value encoding");
  }
  const std::string& tag = j.items()[0].AsString();
  if (tag == "i") return Value(j.items()[1].AsInt());
  if (tag == "d") return Value(j.items()[1].AsNumber());
  if (tag == "s") return Value(j.items()[1].AsString());
  return Status::InvalidArgument("unknown value tag '" + tag + "'");
}

}  // namespace

Json RowToJson(const Row& row) {
  Json arr = Json::Array();
  for (const Value& v : row.values()) arr.Append(ValueToJson(v));
  return arr;
}

Result<Row> RowFromJson(const Json& j) {
  Row row;
  for (const Json& v : j.items()) {
    STUBBY_ASSIGN_OR_RETURN(Value value, ValueFromJson(v));
    row.Append(std::move(value));
  }
  return row;
}

namespace {

Json StringsToJson(const std::vector<std::string>& v) {
  Json arr = Json::Array();
  for (const auto& s : v) arr.Append(s);
  return arr;
}

std::vector<std::string> StringsFromJson(const Json* j) {
  std::vector<std::string> out;
  if (j == nullptr || !j->is_array()) return out;
  for (const Json& s : j->items()) {
    if (s.is_string()) out.push_back(s.AsString());
  }
  return out;
}

Json FieldSetToJson(const FieldSet& fs) {
  Json arr = Json::Array();
  for (const auto& f : fs) arr.Append(f);
  return arr;
}

std::optional<FieldSet> FieldSetFromJson(const Json* j) {
  if (j == nullptr || !j->is_array()) return std::nullopt;
  FieldSet fs;
  for (const Json& s : j->items()) {
    if (s.is_string()) fs.insert(s.AsString());
  }
  return fs;
}

Json PartitionSpecToJson(const PartitionSpec& p) {
  Json j = Json::Object();
  j["type"] = PartitionTypeName(p.type);
  j["fields"] = StringsToJson(p.partition_fields);
  j["sort"] = StringsToJson(p.sort_fields);
  if (!p.split_points.empty()) {
    Json splits = Json::Array();
    for (const Row& r : p.split_points) splits.Append(RowToJson(r));
    j["splits"] = std::move(splits);
  }
  if (!p.split_points_from.empty()) j["splits_from"] = p.split_points_from;
  return j;
}

Result<PartitionSpec> PartitionSpecFromJson(const Json& j) {
  PartitionSpec p;
  p.type = j.GetString("type") == "range" ? PartitionType::kRange
                                          : PartitionType::kHash;
  p.partition_fields = StringsFromJson(j.Find("fields"));
  p.sort_fields = StringsFromJson(j.Find("sort"));
  if (const Json* splits = j.Find("splits"); splits != nullptr) {
    for (const Json& r : splits->items()) {
      STUBBY_ASSIGN_OR_RETURN(Row row, RowFromJson(r));
      p.split_points.push_back(std::move(row));
    }
  }
  p.split_points_from = j.GetString("splits_from");
  return p;
}

}  // namespace

Json LayoutToJson(const Layout& layout) {
  Json j = Json::Object();
  if (layout.partitioning) {
    j["partitioning"] = PartitionSpecToJson(*layout.partitioning);
  }
  if (!layout.order_fields.empty()) {
    j["order"] = StringsToJson(layout.order_fields);
  }
  j["compressed"] = layout.compressed;
  j["block_mb"] = layout.block_mb;
  return j;
}

Result<Layout> LayoutFromJson(const Json& j) {
  Layout layout;
  if (const Json* p = j.Find("partitioning"); p != nullptr) {
    STUBBY_ASSIGN_OR_RETURN(PartitionSpec spec, PartitionSpecFromJson(*p));
    layout.partitioning = std::move(spec);
  }
  layout.order_fields = StringsFromJson(j.Find("order"));
  layout.compressed = j.GetBool("compressed");
  layout.block_mb = j.GetNumber("block_mb", 64.0);
  return layout;
}

namespace {

Json ConfigToJson(const JobConfig& c) {
  Json j = Json::Object();
  j["num_reduce_tasks"] = c.num_reduce_tasks;
  j["io_sort_mb"] = c.io_sort_mb;
  j["io_sort_factor"] = c.io_sort_factor;
  j["use_combiner"] = c.use_combiner;
  j["compress_map_output"] = c.compress_map_output;
  j["compress_output"] = c.compress_output;
  j["split_mb"] = c.split_mb;
  return j;
}

JobConfig ConfigFromJson(const Json& j) {
  JobConfig c;
  c.num_reduce_tasks = static_cast<int>(j.GetNumber("num_reduce_tasks", 1));
  c.io_sort_mb = j.GetNumber("io_sort_mb", 128);
  c.io_sort_factor = static_cast<int>(j.GetNumber("io_sort_factor", 10));
  c.use_combiner = j.GetBool("use_combiner");
  c.compress_map_output = j.GetBool("compress_map_output");
  c.compress_output = j.GetBool("compress_output");
  c.split_mb = j.GetNumber("split_mb", 64);
  return c;
}

Json StatsToJson(const StageStats& s) {
  Json j = Json::Object();
  j["record_selectivity"] = s.record_selectivity;
  j["byte_selectivity"] = s.byte_selectivity;
  j["cpu_per_record"] = s.cpu_per_record;
  j["groups_per_record"] = s.groups_per_record;
  return j;
}

StageStats StatsFromJson(const Json& j) {
  StageStats s;
  s.record_selectivity = j.GetNumber("record_selectivity", 1.0);
  s.byte_selectivity = j.GetNumber("byte_selectivity", 1.0);
  s.cpu_per_record = j.GetNumber("cpu_per_record", 1.0);
  s.groups_per_record = j.GetNumber("groups_per_record", 1.0);
  return s;
}

Json StageToJson(const Stage& s) {
  Json j = Json::Object();
  j["kind"] = s.kind == Stage::Kind::kMap ? "map" : "reduce";
  j["fn"] = s.name();
  if (s.kind == Stage::Kind::kReduce) {
    j["group"] = StringsToJson(s.group_fields);
  }
  if (s.stats) j["stats"] = StatsToJson(*s.stats);
  if (!s.tee_dataset.empty()) j["tee"] = s.tee_dataset;
  return j;
}

Result<Stage> StageFromJson(const Json& j, const FunctionResolver& resolver) {
  Stage s;
  const std::string fn = j.GetString("fn");
  if (j.GetString("kind") == "map") {
    s.kind = Stage::Kind::kMap;
    STUBBY_ASSIGN_OR_RETURN(s.map_fn, resolver.ResolveMap(fn));
  } else {
    s.kind = Stage::Kind::kReduce;
    STUBBY_ASSIGN_OR_RETURN(s.reduce_fn, resolver.ResolveReduce(fn));
    s.group_fields = StringsFromJson(j.Find("group"));
  }
  if (const Json* stats = j.Find("stats"); stats != nullptr) {
    s.stats = StatsFromJson(*stats);
  }
  s.tee_dataset = j.GetString("tee");
  return s;
}

Json HistogramToJson(const KeyHistogram& h) {
  Json j = Json::Object();
  j["field"] = h.field;
  j["min"] = h.min;
  j["max"] = h.max;
  Json buckets = Json::Array();
  for (double b : h.bucket_fractions) buckets.Append(b);
  j["buckets"] = std::move(buckets);
  j["distinct"] = h.distinct;
  j["max_key_fraction"] = h.max_key_fraction;
  if (!h.heavy_hitters.empty()) {
    Json hitters = Json::Array();
    for (const auto& [value, fraction] : h.heavy_hitters) {
      Json pair = Json::Array();
      pair.Append(value);
      pair.Append(fraction);
      hitters.Append(std::move(pair));
    }
    j["heavy_hitters"] = std::move(hitters);
  }
  return j;
}

KeyHistogram HistogramFromJson(const Json& j) {
  KeyHistogram h;
  h.field = j.GetString("field");
  h.min = j.GetNumber("min");
  h.max = j.GetNumber("max");
  if (const Json* buckets = j.Find("buckets"); buckets != nullptr) {
    for (const Json& b : buckets->items()) {
      h.bucket_fractions.push_back(b.AsNumber());
    }
  }
  h.distinct = static_cast<uint64_t>(j.GetNumber("distinct"));
  h.max_key_fraction = j.GetNumber("max_key_fraction");
  if (const Json* hitters = j.Find("heavy_hitters"); hitters != nullptr) {
    for (const Json& pair : hitters->items()) {
      if (pair.is_array() && pair.size() == 2) {
        h.heavy_hitters.emplace_back(pair.items()[0].AsNumber(),
                                     pair.items()[1].AsNumber());
      }
    }
  }
  return h;
}

Json AnnotationsToJson(const JobAnnotations& a) {
  Json j = Json::Object();
  if (a.schema) {
    Json s = Json::Object();
    auto put = [&](const char* key, const std::optional<FieldSet>& fs) {
      if (fs) s[key] = FieldSetToJson(*fs);
    };
    put("k1", a.schema->k1);
    put("v1", a.schema->v1);
    put("k2", a.schema->k2);
    put("v2", a.schema->v2);
    put("k3", a.schema->k3);
    put("v3", a.schema->v3);
    j["schema"] = std::move(s);
  }
  if (a.filter) {
    Json f = Json::Object();
    f["field"] = a.filter->field;
    f["lo"] = a.filter->lo;
    f["hi"] = a.filter->hi;
    j["filter"] = std::move(f);
  }
  if (a.join) {
    Json jn = Json::Object();
    Json filterable = Json::Array();
    for (size_t i : a.join->filterable_inputs) {
      filterable.Append(static_cast<uint64_t>(i));
    }
    jn["filterable"] = std::move(filterable);
    j["join"] = std::move(jn);
  }
  if (a.profile) {
    Json p = Json::Object();
    p["avg_input_record_bytes"] = a.profile->avg_input_record_bytes;
    p["combine_cpu_per_record"] = a.profile->combine_cpu_per_record;
    p["k2_distinct_groups"] = a.profile->k2_distinct_groups;
    p["k2_max_group_fraction"] = a.profile->k2_max_group_fraction;
    Json hists = Json::Array();
    for (const auto& h : a.profile->key_histograms) {
      hists.Append(HistogramToJson(h));
    }
    p["histograms"] = std::move(hists);
    j["profile"] = std::move(p);
  }
  return j;
}

JobAnnotations AnnotationsFromJson(const Json& j) {
  JobAnnotations a;
  if (const Json* s = j.Find("schema"); s != nullptr) {
    SchemaAnnotation sa;
    sa.k1 = FieldSetFromJson(s->Find("k1"));
    sa.v1 = FieldSetFromJson(s->Find("v1"));
    sa.k2 = FieldSetFromJson(s->Find("k2"));
    sa.v2 = FieldSetFromJson(s->Find("v2"));
    sa.k3 = FieldSetFromJson(s->Find("k3"));
    sa.v3 = FieldSetFromJson(s->Find("v3"));
    a.schema = sa;
  }
  if (const Json* f = j.Find("filter"); f != nullptr) {
    FilterAnnotation fa;
    fa.field = f->GetString("field");
    fa.lo = f->GetNumber("lo");
    fa.hi = f->GetNumber("hi");
    a.filter = fa;
  }
  if (const Json* jn = j.Find("join"); jn != nullptr) {
    JoinAnnotation ja;
    if (const Json* f = jn->Find("filterable"); f != nullptr) {
      for (const Json& i : f->items()) {
        ja.filterable_inputs.push_back(static_cast<size_t>(i.AsNumber()));
      }
    }
    a.join = ja;
  }
  if (const Json* p = j.Find("profile"); p != nullptr) {
    ProfileAnnotation pa;
    pa.avg_input_record_bytes = p->GetNumber("avg_input_record_bytes", 100.0);
    pa.combine_cpu_per_record = p->GetNumber("combine_cpu_per_record", 0.3);
    pa.k2_distinct_groups = p->GetNumber("k2_distinct_groups");
    pa.k2_max_group_fraction = p->GetNumber("k2_max_group_fraction");
    if (const Json* hists = p->Find("histograms"); hists != nullptr) {
      for (const Json& h : hists->items()) {
        pa.key_histograms.push_back(HistogramFromJson(h));
      }
    }
    a.profile = pa;
  }
  return a;
}

/// Reads a number that must be an integer within int's range (a cast of
/// anything else to int is undefined or silently truncates).
Result<int> IntFromJson(const Json& j, const std::string& field) {
  const double d = j.is_number() ? j.AsNumber() : std::nan("");
  if (!std::isfinite(d) || d != std::floor(d) ||
      d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("'" + field + "' is not an integer");
  }
  return static_cast<int>(d);
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanFunctionResolver
// ---------------------------------------------------------------------------

PlanFunctionResolver::PlanFunctionResolver(const Plan& plan) {
  auto harvest_stage = [&](const Stage& s) {
    if (s.kind == Stage::Kind::kMap) {
      maps_.emplace(s.map_fn->name(), s.map_fn);
    } else {
      reduces_.emplace(s.reduce_fn->name(), s.reduce_fn);
    }
  };
  for (const auto& [jid, job] : plan.jobs()) {
    for (const Branch& b : job.branches) {
      for (const BranchInput& in : b.inputs) {
        for (const Stage& s : in.map_stages) harvest_stage(s);
      }
      for (const Stage& s : b.merged_map_stages) harvest_stage(s);
      for (const Stage& s : b.reduce_stages) harvest_stage(s);
      if (b.combiner != nullptr) {
        combines_.emplace(b.combiner->name(), b.combiner);
      }
    }
  }
}

Result<std::shared_ptr<MapFn>> PlanFunctionResolver::ResolveMap(
    const std::string& name) const {
  auto it = maps_.find(name);
  if (it == maps_.end()) {
    return Status::NotFound("map function '" + name + "'");
  }
  return it->second;
}

Result<std::shared_ptr<ReduceFn>> PlanFunctionResolver::ResolveReduce(
    const std::string& name) const {
  auto it = reduces_.find(name);
  if (it == reduces_.end()) {
    return Status::NotFound("reduce function '" + name + "'");
  }
  return it->second;
}

Result<std::shared_ptr<CombineFn>> PlanFunctionResolver::ResolveCombine(
    const std::string& name) const {
  auto it = combines_.find(name);
  if (it == combines_.end()) {
    return Status::NotFound("combine function '" + name + "'");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Plan -> JSON
// ---------------------------------------------------------------------------

Json PlanToJson(const Plan& plan) {
  Json root = Json::Object();
  root["format"] = "stubby-plan";
  root["version"] = 1;

  const ClusterSpec& c = plan.cluster();
  Json cluster = Json::Object();
  cluster["num_nodes"] = c.num_nodes;
  cluster["map_slots_per_node"] = c.map_slots_per_node;
  cluster["reduce_slots_per_node"] = c.reduce_slots_per_node;
  root["cluster"] = std::move(cluster);

  Json datasets = Json::Array();
  for (const auto& [id, ds] : plan.datasets()) {
    Json d = Json::Object();
    d["id"] = id;
    d["schema"] = StringsToJson(ds.schema.fields());
    d["layout"] = LayoutToJson(ds.layout);
    d["base_input"] = ds.is_base_input;
    d["workflow_output"] = ds.is_workflow_output;
    if (!ds.materialized_from.empty()) {
      d["materialized_from"] = ds.materialized_from;
    }
    Json ann = Json::Object();
    if (ds.annotation.schema) {
      ann["schema"] = StringsToJson(ds.annotation.schema->fields());
    }
    if (ds.annotation.layout) {
      ann["layout"] = LayoutToJson(*ds.annotation.layout);
    }
    if (ds.annotation.num_records) {
      ann["num_records"] = *ds.annotation.num_records;
    }
    if (ds.annotation.bytes) ann["bytes"] = *ds.annotation.bytes;
    if (ds.annotation.num_partitions) {
      ann["num_partitions"] = *ds.annotation.num_partitions;
    }
    d["annotation"] = std::move(ann);
    datasets.Append(std::move(d));
  }
  root["datasets"] = std::move(datasets);

  Json jobs = Json::Array();
  for (const auto& [jid, job] : plan.jobs()) {
    Json j = Json::Object();
    j["id"] = jid;
    j["config"] = ConfigToJson(job.config);
    Json cond = Json::Object();
    cond["partition_frozen"] = job.conditions.partition_frozen;
    if (job.conditions.num_reduce_fixed) {
      cond["num_reduce_fixed"] = *job.conditions.num_reduce_fixed;
    }
    cond["bloom_transfer"] = job.conditions.bloom_transfer;
    j["conditions"] = std::move(cond);

    Json branches = Json::Array();
    for (const Branch& b : job.branches) {
      Json bj = Json::Object();
      bj["tag"] = b.tag;
      Json inputs = Json::Array();
      for (const BranchInput& in : b.inputs) {
        Json ij = Json::Object();
        ij["dataset"] = in.dataset_id;
        Json stages = Json::Array();
        for (const Stage& s : in.map_stages) stages.Append(StageToJson(s));
        ij["stages"] = std::move(stages);
        ij["aligned"] = in.aligned;
        if (!in.prune_partitions.empty()) {
          Json prune = Json::Array();
          for (int p : in.prune_partitions) prune.Append(p);
          ij["prune"] = std::move(prune);
          ij["prune_fraction"] = in.prune_fraction;
        }
        inputs.Append(std::move(ij));
      }
      bj["inputs"] = std::move(inputs);
      if (b.merge_mode()) {
        Json merged = Json::Array();
        for (const Stage& s : b.merged_map_stages) {
          merged.Append(StageToJson(s));
        }
        bj["merged_stages"] = std::move(merged);
        bj["merge_schema"] = StringsToJson(b.merge_schema.fields());
        bj["merge_sort"] = StringsToJson(b.merge_sort_fields);
      }
      bj["map_output_schema"] = StringsToJson(b.map_output_schema.fields());
      if (!b.map_only()) {
        Json reduce = Json::Array();
        for (const Stage& s : b.reduce_stages) reduce.Append(StageToJson(s));
        bj["reduce_stages"] = std::move(reduce);
        bj["partition"] = PartitionSpecToJson(b.partition);
      }
      if (b.bloom) {
        Json bl = Json::Object();
        bl["build_input"] = static_cast<uint64_t>(b.bloom->build_input);
        Json probes = Json::Array();
        for (size_t p : b.bloom->probe_inputs) {
          probes.Append(static_cast<uint64_t>(p));
        }
        bl["probe_inputs"] = std::move(probes);
        bl["key_fields"] = StringsToJson(b.bloom->key_fields);
        bl["bits_log2"] = b.bloom->bits_log2;
        bl["num_hashes"] = b.bloom->num_hashes;
        bl["est_pass_fraction"] = b.bloom->est_pass_fraction;
        bj["bloom"] = std::move(bl);
      }
      if (b.combiner != nullptr) bj["combiner"] = b.combiner->name();
      if (b.preserved_partition) {
        bj["preserved_partition"] =
            PartitionSpecToJson(*b.preserved_partition);
      }
      bj["output"] = b.output_dataset;
      bj["annotations"] = AnnotationsToJson(b.annotations);
      branches.Append(std::move(bj));
    }
    j["branches"] = std::move(branches);
    jobs.Append(std::move(j));
  }
  root["jobs"] = std::move(jobs);
  return root;
}

// ---------------------------------------------------------------------------
// JSON -> Plan
// ---------------------------------------------------------------------------

Result<Plan> PlanFromJson(const Json& json,
                          const FunctionResolver& resolver) {
  if (json.GetString("format") != "stubby-plan") {
    return Status::InvalidArgument("not a stubby-plan document");
  }
  ClusterSpec cluster;
  if (const Json* c = json.Find("cluster"); c != nullptr) {
    cluster.num_nodes = static_cast<int>(c->GetNumber("num_nodes", 51));
    cluster.map_slots_per_node =
        static_cast<int>(c->GetNumber("map_slots_per_node", 3));
    cluster.reduce_slots_per_node =
        static_cast<int>(c->GetNumber("reduce_slots_per_node", 2));
  }
  Plan plan(cluster);

  const Json* datasets = json.Find("datasets");
  if (datasets == nullptr || !datasets->is_array()) {
    return Status::InvalidArgument("missing datasets");
  }
  for (const Json& d : datasets->items()) {
    DatasetVertex v;
    v.id = d.GetString("id");
    v.schema = Schema(StringsFromJson(d.Find("schema")));
    if (const Json* layout = d.Find("layout"); layout != nullptr) {
      STUBBY_ASSIGN_OR_RETURN(v.layout, LayoutFromJson(*layout));
    }
    v.is_base_input = d.GetBool("base_input");
    v.is_workflow_output = d.GetBool("workflow_output");
    v.materialized_from = d.GetString("materialized_from");
    if (const Json* ann = d.Find("annotation"); ann != nullptr) {
      if (const Json* s = ann->Find("schema"); s != nullptr) {
        v.annotation.schema = Schema(StringsFromJson(s));
      }
      if (const Json* layout = ann->Find("layout"); layout != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(Layout l, LayoutFromJson(*layout));
        v.annotation.layout = std::move(l);
      }
      if (const Json* n = ann->Find("num_records"); n != nullptr) {
        v.annotation.num_records = static_cast<uint64_t>(n->AsNumber());
      }
      if (const Json* b = ann->Find("bytes"); b != nullptr) {
        v.annotation.bytes = static_cast<uint64_t>(b->AsNumber());
      }
      if (const Json* p = ann->Find("num_partitions"); p != nullptr) {
        v.annotation.num_partitions = static_cast<int>(p->AsNumber());
      }
    }
    STUBBY_RETURN_NOT_OK(plan.AddDataset(std::move(v)));
  }

  const Json* jobs = json.Find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return Status::InvalidArgument("missing jobs");
  }
  for (const Json& j : jobs->items()) {
    JobVertex job;
    job.id = j.GetString("id");
    if (const Json* c = j.Find("config"); c != nullptr) {
      job.config = ConfigFromJson(*c);
    }
    if (const Json* cond = j.Find("conditions"); cond != nullptr) {
      job.conditions.partition_frozen = cond->GetBool("partition_frozen");
      if (const Json* n = cond->Find("num_reduce_fixed"); n != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(job.conditions.num_reduce_fixed,
                                IntFromJson(*n, "num_reduce_fixed"));
      }
      job.conditions.bloom_transfer = cond->GetBool("bloom_transfer");
    }
    const Json* branches = j.Find("branches");
    if (branches == nullptr) {
      return Status::InvalidArgument("job without branches");
    }
    for (const Json& bj : branches->items()) {
      Branch b;
      b.tag = bj.GetString("tag");
      if (const Json* inputs = bj.Find("inputs"); inputs != nullptr) {
        for (const Json& ij : inputs->items()) {
          BranchInput in;
          in.dataset_id = ij.GetString("dataset");
          if (const Json* stages = ij.Find("stages"); stages != nullptr) {
            for (const Json& sj : stages->items()) {
              STUBBY_ASSIGN_OR_RETURN(Stage s, StageFromJson(sj, resolver));
              in.map_stages.push_back(std::move(s));
            }
          }
          in.aligned = ij.GetBool("aligned");
          if (const Json* prune = ij.Find("prune"); prune != nullptr) {
            for (const Json& p : prune->items()) {
              in.prune_partitions.push_back(static_cast<int>(p.AsNumber()));
            }
            in.prune_fraction = ij.GetNumber("prune_fraction", 1.0);
          }
          b.inputs.push_back(std::move(in));
        }
      }
      if (const Json* merged = bj.Find("merged_stages"); merged != nullptr) {
        for (const Json& sj : merged->items()) {
          STUBBY_ASSIGN_OR_RETURN(Stage s, StageFromJson(sj, resolver));
          b.merged_map_stages.push_back(std::move(s));
        }
        b.merge_schema = Schema(StringsFromJson(bj.Find("merge_schema")));
        b.merge_sort_fields = StringsFromJson(bj.Find("merge_sort"));
      }
      b.map_output_schema =
          Schema(StringsFromJson(bj.Find("map_output_schema")));
      if (const Json* reduce = bj.Find("reduce_stages"); reduce != nullptr) {
        for (const Json& sj : reduce->items()) {
          STUBBY_ASSIGN_OR_RETURN(Stage s, StageFromJson(sj, resolver));
          b.reduce_stages.push_back(std::move(s));
        }
      }
      if (const Json* p = bj.Find("partition"); p != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(b.partition, PartitionSpecFromJson(*p));
      }
      if (const Json* c = bj.Find("combiner"); c != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(b.combiner,
                                resolver.ResolveCombine(c->AsString()));
      }
      if (const Json* p = bj.Find("preserved_partition"); p != nullptr) {
        STUBBY_ASSIGN_OR_RETURN(PartitionSpec spec,
                                PartitionSpecFromJson(*p));
        b.preserved_partition = std::move(spec);
      }
      if (const Json* bl = bj.Find("bloom"); bl != nullptr) {
        BloomTransferSpec spec;
        spec.build_input = static_cast<size_t>(bl->GetNumber("build_input"));
        if (const Json* probes = bl->Find("probe_inputs");
            probes != nullptr) {
          for (const Json& p : probes->items()) {
            spec.probe_inputs.push_back(static_cast<size_t>(p.AsNumber()));
          }
        }
        spec.key_fields = StringsFromJson(bl->Find("key_fields"));
        spec.bits_log2 = static_cast<int>(bl->GetNumber("bits_log2", 20));
        spec.num_hashes = static_cast<int>(bl->GetNumber("num_hashes", 6));
        spec.est_pass_fraction = bl->GetNumber("est_pass_fraction", 1.0);
        b.bloom = std::move(spec);
      }
      b.output_dataset = bj.GetString("output");
      if (const Json* ann = bj.Find("annotations"); ann != nullptr) {
        b.annotations = AnnotationsFromJson(*ann);
      }
      job.branches.push_back(std::move(b));
    }
    STUBBY_RETURN_NOT_OK(plan.AddJob(std::move(job)));
  }
  STUBBY_RETURN_NOT_OK(plan.Validate());
  return plan;
}

std::string ExportPlan(const Plan& plan) { return PlanToJson(plan).Dump(2); }

Result<Plan> ImportPlan(const std::string& text,
                        const FunctionResolver& resolver) {
  STUBBY_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return PlanFromJson(json, resolver);
}

}  // namespace stubby
