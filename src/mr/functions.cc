#include "mr/functions.h"

namespace stubby {

std::shared_ptr<MapFn> MakeIdentityMap(const Schema& schema) {
  return std::make_shared<LambdaMapFn>(
      "identity", schema, schema,
      [](const Row& in, Emitter* out) { out->Emit(in); },
      /*cpu_weight=*/0.1);
}

}  // namespace stubby
