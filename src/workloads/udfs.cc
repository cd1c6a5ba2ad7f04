#include "workloads/udfs.h"

#include <algorithm>
#include <limits>

namespace stubby {

namespace {

/// Computes one aggregate over a group (rows share the group key).
Value ComputeAgg(const std::vector<Row>& group, size_t field_idx, AggOp op) {
  switch (op) {
    case AggOp::kCount:
      return Value(static_cast<int64_t>(group.size()));
    case AggOp::kSum: {
      double s = 0;
      for (const Row& r : group) s += r[field_idx].AsDouble();
      return Value(s);
    }
    case AggOp::kAvg: {
      double s = 0;
      for (const Row& r : group) s += r[field_idx].AsDouble();
      return Value(group.empty() ? 0.0 : s / group.size());
    }
    case AggOp::kMax: {
      double m = -std::numeric_limits<double>::infinity();
      for (const Row& r : group) m = std::max(m, r[field_idx].AsDouble());
      return Value(m);
    }
    case AggOp::kMin: {
      double m = std::numeric_limits<double>::infinity();
      for (const Row& r : group) m = std::min(m, r[field_idx].AsDouble());
      return Value(m);
    }
  }
  return Value(int64_t{0});
}

}  // namespace

Schema AggOutputSchema(const std::vector<std::string>& group_fields,
                       const std::vector<AggSpec>& aggs) {
  std::vector<std::string> fields = group_fields;
  for (const auto& a : aggs) fields.push_back(a.out_field);
  return Schema(std::move(fields));
}

std::shared_ptr<MapFn> ProjectMap(const std::string& name, const Schema& in,
                                  const std::vector<std::string>& out_fields,
                                  double cpu) {
  auto idx = in.IndicesOf(out_fields);
  std::vector<size_t> indices = idx.ok() ? std::move(*idx)
                                         : std::vector<size_t>{};
  return std::make_shared<LambdaMapFn>(
      name, in, Schema(out_fields),
      [indices](const Row& r, Emitter* out) { out->Emit(r.Project(indices)); },
      cpu);
}

std::shared_ptr<MapFn> FilterRangeMap(const std::string& name,
                                      const Schema& schema,
                                      const std::string& field, double lo,
                                      double hi, double cpu) {
  size_t i = schema.IndexOf(field).value_or(0);
  return std::make_shared<LambdaMapFn>(
      name, schema, schema,
      [i, lo, hi](const Row& r, Emitter* out) {
        double v = r[i].AsDouble();
        if (v >= lo && v < hi) out->Emit(r);
      },
      cpu);
}

std::shared_ptr<MapFn> AppendConstMap(const std::string& name,
                                      const Schema& in,
                                      const std::string& field, Value value,
                                      double cpu) {
  Schema out_schema = in.Concat(Schema({field}));
  return std::make_shared<LambdaMapFn>(
      name, in, out_schema,
      [value](const Row& r, Emitter* out) {
        Row row = r;
        row.Append(value);
        out->Emit(std::move(row));
      },
      cpu);
}

std::shared_ptr<MapFn> SampleMap(const std::string& name, const Schema& in,
                                 uint64_t every_n,
                                 const std::vector<std::string>& out_fields,
                                 double cpu) {
  auto idx = in.IndicesOf(out_fields);
  std::vector<size_t> indices = idx.ok() ? std::move(*idx)
                                         : std::vector<size_t>{};
  uint64_t n = std::max<uint64_t>(1, every_n);
  return std::make_shared<LambdaMapFn>(
      name, in, Schema(out_fields),
      [indices, n](const Row& r, Emitter* out) {
        if (r.Hash() % n == 0) out->Emit(r.Project(indices));
      },
      cpu);
}

std::shared_ptr<ReduceFn> AggReduce(
    const std::string& name, const Schema& in,
    const std::vector<std::string>& group_fields,
    const std::vector<AggSpec>& aggs, double cpu) {
  Schema out_schema = AggOutputSchema(group_fields, aggs);
  std::vector<size_t> agg_idx;
  for (const auto& a : aggs) {
    agg_idx.push_back(in.IndexOf(a.in_field).value_or(0));
  }
  std::vector<AggOp> ops;
  for (const auto& a : aggs) ops.push_back(a.op);
  return std::make_shared<LambdaReduceFn>(
      name, out_schema,
      [agg_idx, ops](const Row& key, const std::vector<Row>& group,
                     Emitter* out) {
        Row row = key;
        for (size_t i = 0; i < ops.size(); ++i) {
          row.Append(ComputeAgg(group, agg_idx[i], ops[i]));
        }
        out->Emit(std::move(row));
      },
      cpu);
}

std::shared_ptr<ReduceFn> InnerJoinReduce(
    const std::string& name, const Schema& in,
    const std::vector<std::string>& group_fields,
    const std::string& tag_field, const std::vector<int64_t>& required_tags,
    const std::vector<AggSpec>& aggs, double cpu) {
  Schema out_schema = AggOutputSchema(group_fields, aggs);
  size_t tag_idx = in.IndexOf(tag_field).value_or(0);
  std::vector<size_t> agg_idx;
  std::vector<AggOp> ops;
  for (const auto& a : aggs) {
    agg_idx.push_back(in.IndexOf(a.in_field).value_or(0));
    ops.push_back(a.op);
  }
  return std::make_shared<LambdaReduceFn>(
      name, out_schema,
      [tag_idx, required_tags, agg_idx, ops](const Row& key,
                                             const std::vector<Row>& group,
                                             Emitter* out) {
        for (int64_t t : required_tags) {
          bool found = false;
          for (const Row& r : group) {
            if (r[tag_idx].AsDouble() == static_cast<double>(t)) {
              found = true;
              break;
            }
          }
          if (!found) return;
        }
        Row row = key;
        for (size_t i = 0; i < ops.size(); ++i) {
          row.Append(ComputeAgg(group, agg_idx[i], ops[i]));
        }
        out->Emit(std::move(row));
      },
      cpu);
}

std::shared_ptr<ReduceFn> DistinctReduce(
    const std::string& name, const Schema& in,
    const std::vector<std::string>& group_fields, double cpu) {
  (void)in;
  return std::make_shared<LambdaReduceFn>(
      name, Schema(group_fields),
      [](const Row& key, const std::vector<Row>& group, Emitter* out) {
        (void)group;
        out->Emit(key);
      },
      cpu);
}

std::shared_ptr<CombineFn> AggCombine(
    const std::string& name, const Schema& schema,
    const std::vector<std::string>& group_fields,
    const std::vector<AggSpec>& aggs, double cpu) {
  (void)group_fields;
  std::vector<size_t> agg_idx;
  std::vector<AggOp> ops;
  for (const auto& a : aggs) {
    agg_idx.push_back(schema.IndexOf(a.in_field).value_or(0));
    ops.push_back(a.op);
  }
  return std::make_shared<LambdaCombineFn>(
      name,
      [agg_idx, ops](const Row& key, const std::vector<Row>& group,
                     Emitter* out) {
        (void)key;
        Row row = group.front();
        for (size_t i = 0; i < ops.size(); ++i) {
          // Partial aggregation in place; kCount/kAvg are not algebraic in
          // this representation and fall back to pass-through.
          if (ops[i] == AggOp::kSum || ops[i] == AggOp::kMax ||
              ops[i] == AggOp::kMin) {
            row[agg_idx[i]] = ComputeAgg(group, agg_idx[i], ops[i]);
          } else {
            for (const Row& r : group) out->Emit(r);
            return;
          }
        }
        out->Emit(std::move(row));
      },
      cpu);
}

}  // namespace stubby
