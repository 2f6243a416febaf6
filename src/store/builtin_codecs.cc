// The model codecs of the paper's two methods and their lookup. This is
// the only store-layer file that knows the concrete codecs; everything
// else resolves them through CodecByMethod / CodecByTag — the persistence
// mirror of api/builtin_methods.cc.
#include <string>

#include "src/common/string_util.h"
#include "src/fwd/codec.h"
#include "src/n2v/codec.h"
#include "src/store/model_codec.h"

namespace stedb::store {
namespace {

const ModelCodec& Forward() {
  static const fwd::ForwardModelCodec codec;
  return codec;
}

const ModelCodec& Node2Vec() {
  static const n2v::Node2VecModelCodec codec;
  return codec;
}

}  // namespace

Result<const ModelCodec*> CodecByMethod(const std::string& method) {
  const std::string key = ToLower(method);
  if (key == Forward().method()) return &Forward();
  if (key == Node2Vec().method()) return &Node2Vec();
  return Status::NotFound("no model codec for method '" + method +
                          "' (known: forward, node2vec)");
}

Result<const ModelCodec*> CodecByTag(uint32_t method_tag) {
  if (method_tag == Forward().method_tag()) return &Forward();
  if (method_tag == Node2Vec().method_tag()) return &Node2Vec();
  return Status::NotFound("no model codec for snapshot method tag '" +
                          FourCcToString(method_tag) +
                          "' (known: forward, node2vec)");
}

}  // namespace stedb::store
