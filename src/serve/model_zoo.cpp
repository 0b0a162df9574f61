#include "serve/model_zoo.h"

#include <stdexcept>

#include "models/bert.h"
#include "models/gpt2.h"
#include "models/mlp.h"
#include "models/moe.h"
#include "models/resnet.h"
#include "models/t5.h"

namespace rannc {
namespace serve {

BuiltModel build_model(const ModelSpec& o) {
  if (o.model == "mlp") {
    MlpConfig c;
    if (o.input_dim) c.input_dim = o.input_dim;
    if (o.batch) c.batch = o.batch;
    if (o.classes) c.num_classes = o.classes;
    if (o.hidden) c.hidden_dims.assign(o.layers ? o.layers : 2, o.hidden);
    return build_mlp(c);
  }
  if (o.model == "bert") {
    BertConfig c;
    if (o.hidden) c.hidden = o.hidden;
    if (o.layers) c.layers = o.layers;
    if (o.seq) c.seq_len = o.seq;
    if (o.vocab) c.vocab = o.vocab;
    if (o.heads) c.heads = o.heads;
    return build_bert(c);
  }
  if (o.model == "gpt2") {
    Gpt2Config c;
    if (o.hidden) c.hidden = o.hidden;
    if (o.layers) c.layers = o.layers;
    if (o.seq) c.seq_len = o.seq;
    if (o.vocab) c.vocab = o.vocab;
    if (o.heads) c.heads = o.heads;
    return build_gpt2(c);
  }
  if (o.model == "t5") {
    T5Config c;
    if (o.hidden) c.hidden = o.hidden;
    if (o.layers) c.layers = o.layers;
    if (o.seq) c.seq_len = o.seq;
    if (o.vocab) c.vocab = o.vocab;
    if (o.heads) c.heads = o.heads;
    return build_t5(c);
  }
  if (o.model == "moe") {
    MoeConfig c;
    if (o.hidden) c.hidden = o.hidden;
    if (o.layers) c.layers = o.layers;
    if (o.seq) c.seq_len = o.seq;
    if (o.vocab) c.vocab = o.vocab;
    if (o.heads) c.heads = o.heads;
    if (o.experts) c.experts = o.experts;
    return build_moe(c);
  }
  if (o.model == "resnet") {
    ResNetConfig c;
    if (o.depth) c.depth = static_cast<int>(o.depth);
    if (o.width) c.width_factor = o.width;
    if (o.image) c.image_size = o.image;
    if (o.classes) c.num_classes = o.classes;
    return build_resnet(c);
  }
  throw std::invalid_argument(o.model.empty()
                                  ? std::string("model is required")
                                  : "unknown model '" + o.model + "'");
}

std::string canonical_sig(const ModelSpec& o) {
  std::string s = "model=" + o.model;
  const auto put = [&s](const char* k, std::int64_t v) {
    if (!v) return;
    s += ',';
    s += k;
    s += '=';
    s += std::to_string(v);
  };
  put("layers", o.layers);
  put("hidden", o.hidden);
  put("seq", o.seq);
  put("vocab", o.vocab);
  put("heads", o.heads);
  put("depth", o.depth);
  put("width", o.width);
  put("image", o.image);
  put("classes", o.classes);
  put("batch", o.batch);
  put("input_dim", o.input_dim);
  put("experts", o.experts);
  return s;
}

ModelSpec spec_from_json(const json::Value& v) {
  ModelSpec o;
  o.model = v.gets("model");
  o.layers = v.geti("layers");
  o.hidden = v.geti("hidden");
  o.seq = v.geti("seq");
  o.vocab = v.geti("vocab");
  o.heads = v.geti("heads");
  o.depth = v.geti("depth");
  o.width = v.geti("width");
  o.image = v.geti("image");
  o.classes = v.geti("classes");
  o.batch = v.geti("batch");
  o.input_dim = v.geti("input_dim");
  o.experts = v.geti("experts");
  return o;
}

}  // namespace serve
}  // namespace rannc
