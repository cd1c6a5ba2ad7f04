// User-defined function interfaces of the MapReduce programming model
// (Section 2.1 of the paper): map, reduce, combine. The partition function
// is modeled separately in mr/partitioner.h because Stubby's partition
// function transformation manipulates it as data.
//
// Functions are black boxes to the optimizer; the executor calls them on
// real rows. Schema information is exposed to the optimizer only through
// annotations (workflow/annotations.h), mirroring the paper's information
// spectrum: a function may well have a schema the optimizer never sees.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mr/schema.h"
#include "mr/tuple.h"

namespace stubby {

/// Sink for rows produced by a UDF invocation.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(Row row) = 0;
};

/// Emitter that buffers into a vector (used by tests and simple stages).
class VectorEmitter : public Emitter {
 public:
  void Emit(Row row) override { rows_.push_back(std::move(row)); }
  std::vector<Row>& rows() { return rows_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// map(K1,V1) => list(K2,V2). One instance is cloned per task so stateful
/// functions (samplers, top-K) see task-local state.
class MapFn {
 public:
  virtual ~MapFn() = default;

  /// Invoked once per input row.
  virtual void Map(const Row& in, Emitter* out) = 0;

  /// Called before the first / after the last row of a task. Finish may emit
  /// (e.g. a per-task top-K flush).
  virtual void Setup() {}
  virtual void Finish(Emitter* out) { (void)out; }

  virtual std::string name() const = 0;
  /// Row type consumed (K1+V1 fields) and produced (K2+V2 fields).
  virtual const Schema& input_schema() const = 0;
  virtual const Schema& output_schema() const = 0;

  /// Relative per-record compute weight used by the cost model (1.0 = a
  /// trivial pass-through).
  virtual double cpu_cost_per_record() const { return 1.0; }

  /// True when the function is row-wise pure: output depends only on the
  /// current input row (no cross-row task state, nothing emitted from
  /// Finish). Stateless pipelines produce the same concatenated output
  /// stream regardless of how the input is chunked into tasks — the
  /// property the result-reuse subsystem needs to match map-only prefixes
  /// across jobs with different task boundaries. Conservatively false for
  /// hand-written subclasses (samplers, top-K).
  virtual bool stateless() const { return false; }

  /// Fresh instance with reset state for a new task.
  virtual std::shared_ptr<MapFn> Clone() const = 0;
};

/// reduce(K2, list(V2)) => list(K3,V3). `key` carries the grouping-field
/// values; `group` carries full map-output rows of that group.
class ReduceFn {
 public:
  virtual ~ReduceFn() = default;

  virtual void Reduce(const Row& key, const std::vector<Row>& group,
                      Emitter* out) = 0;
  virtual void Setup() {}
  virtual void Finish(Emitter* out) { (void)out; }

  virtual std::string name() const = 0;
  /// Row type produced (K3+V3 fields).
  virtual const Schema& output_schema() const = 0;
  virtual double cpu_cost_per_record() const { return 1.0; }

  virtual std::shared_ptr<ReduceFn> Clone() const = 0;
};

/// combine(K2, list(V2)) => list(K2,V2): map-side preaggregation. Input and
/// output row types are identical by definition.
class CombineFn {
 public:
  virtual ~CombineFn() = default;

  virtual void Combine(const Row& key, const std::vector<Row>& group,
                       Emitter* out) = 0;
  virtual std::string name() const = 0;
  virtual double cpu_cost_per_record() const { return 1.0; }

  virtual std::shared_ptr<CombineFn> Clone() const = 0;
};

// ---------------------------------------------------------------------------
// std::function adapters: convenient for tests, examples, and workloads that
// do not need per-task state.
// ---------------------------------------------------------------------------

/// MapFn from a lambda `(const Row&, Emitter*)`. The lambda must be
/// row-wise pure (it cannot be otherwise through this interface: there is
/// no Finish hook and captures are copied per Clone), so lambda maps are
/// stateless by construction.
class LambdaMapFn : public MapFn {
 public:
  using Fn = std::function<void(const Row&, Emitter*)>;

  LambdaMapFn(std::string name, Schema in, Schema out, Fn fn,
              double cpu_weight = 1.0)
      : name_(std::move(name)),
        in_(std::move(in)),
        out_(std::move(out)),
        fn_(std::move(fn)),
        cpu_weight_(cpu_weight) {}

  void Map(const Row& in, Emitter* out) override { fn_(in, out); }
  std::string name() const override { return name_; }
  const Schema& input_schema() const override { return in_; }
  const Schema& output_schema() const override { return out_; }
  double cpu_cost_per_record() const override { return cpu_weight_; }
  bool stateless() const override { return true; }
  std::shared_ptr<MapFn> Clone() const override {
    return std::make_shared<LambdaMapFn>(*this);
  }

 private:
  std::string name_;
  Schema in_, out_;
  Fn fn_;
  double cpu_weight_;
};

/// ReduceFn from a lambda `(const Row& key, const std::vector<Row>&,
/// Emitter*)`.
class LambdaReduceFn : public ReduceFn {
 public:
  using Fn =
      std::function<void(const Row&, const std::vector<Row>&, Emitter*)>;

  LambdaReduceFn(std::string name, Schema out, Fn fn,
                 double cpu_weight = 1.0)
      : name_(std::move(name)),
        out_(std::move(out)),
        fn_(std::move(fn)),
        cpu_weight_(cpu_weight) {}

  void Reduce(const Row& key, const std::vector<Row>& group,
              Emitter* out) override {
    fn_(key, group, out);
  }
  std::string name() const override { return name_; }
  const Schema& output_schema() const override { return out_; }
  double cpu_cost_per_record() const override { return cpu_weight_; }
  std::shared_ptr<ReduceFn> Clone() const override {
    return std::make_shared<LambdaReduceFn>(*this);
  }

 private:
  std::string name_;
  Schema out_;
  Fn fn_;
  double cpu_weight_;
};

/// CombineFn from a lambda.
class LambdaCombineFn : public CombineFn {
 public:
  using Fn =
      std::function<void(const Row&, const std::vector<Row>&, Emitter*)>;

  LambdaCombineFn(std::string name, Fn fn, double cpu_weight = 1.0)
      : name_(std::move(name)), fn_(std::move(fn)), cpu_weight_(cpu_weight) {}

  void Combine(const Row& key, const std::vector<Row>& group,
               Emitter* out) override {
    fn_(key, group, out);
  }
  std::string name() const override { return name_; }
  double cpu_cost_per_record() const override { return cpu_weight_; }
  std::shared_ptr<CombineFn> Clone() const override {
    return std::make_shared<LambdaCombineFn>(*this);
  }

 private:
  std::string name_;
  Fn fn_;
  double cpu_weight_;
};

/// Identity map function (emits its input row unchanged) — the implicit map
/// of jobs whose work is all in the reduce.
std::shared_ptr<MapFn> MakeIdentityMap(const Schema& schema);

}  // namespace stubby
