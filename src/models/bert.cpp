#include "models/bert.h"

#include <cmath>
#include <string>

namespace rannc {

namespace {

/// Linear layer y = x W^T + b over 2-D activations [n, in] -> [n, out].
/// The weight is stored [out, in] (PyTorch convention) and transposed by an
/// explicit task, exactly as a traced nn.Linear appears in the ONNX-style
/// graph — the transpose is a *constant task* (paper Fig. 2(b), w1/w3).
ValueId linear(TaskGraph& g, const std::string& prefix, ValueId x,
               std::int64_t n, std::int64_t in, std::int64_t out) {
  ValueId w = g.add_param(prefix + ".weight", Shape{out, in});
  ValueId b = g.add_param(prefix + ".bias", Shape{out});
  ValueId wt = g.add_task(prefix + ".weight_t", OpKind::Transpose, {w},
                          Shape{in, out}, DType::F32,
                          OpAttrs{}.set("perm0", std::int64_t{1})
                                   .set("perm1", std::int64_t{0}));
  ValueId y = g.add_task(prefix + ".matmul", OpKind::MatMul, {x, wt},
                         Shape{n, out});
  return g.add_task(prefix + ".bias_add", OpKind::Add, {y, b}, Shape{n, out});
}

ValueId layer_norm(TaskGraph& g, const std::string& prefix, ValueId x,
                   Shape shape) {
  const std::int64_t h = shape.dims.back();
  ValueId gamma = g.add_param(prefix + ".gamma", Shape{h});
  ValueId beta = g.add_param(prefix + ".beta", Shape{h});
  return g.add_task(prefix, OpKind::LayerNorm, {x, gamma, beta},
                    std::move(shape));
}

}  // namespace

std::int64_t BertConfig::param_count() const {
  const std::int64_t h = hidden;
  const std::int64_t ffn = ffn_dim();
  const std::int64_t emb = vocab * h + seq_len * h + 2 * h;  // tok+pos+LN
  const std::int64_t attn = 4 * (h * h + h) + 2 * h;
  const std::int64_t mlp = h * ffn + ffn + ffn * h + h + 2 * h;
  const std::int64_t head = h * h + h + 2 * h + h * vocab + vocab;
  return emb + layers * (attn + mlp) + head;
}

BuiltModel build_bert(const BertConfig& cfg) {
  const std::int64_t s = cfg.seq_len;
  const std::int64_t h = cfg.hidden;
  const std::int64_t a = cfg.num_heads();
  const std::int64_t dh = h / a;
  const std::int64_t ffn = cfg.ffn_dim();

  BuiltModel m;
  m.transformer = true;
  m.hidden = h;
  m.seq_len = s;
  TaskGraph& g = m.graph;

  auto begin_layer = [&](const std::string& name) {
    LayerSpan span;
    span.name = name;
    span.begin = static_cast<TaskId>(g.num_tasks());
    m.layers.push_back(span);
  };
  auto end_layer = [&] {
    m.layers.back().end = static_cast<TaskId>(g.num_tasks());
  };

  // ---- inputs -------------------------------------------------------------
  ValueId input_ids = g.add_input("input_ids", Shape{s}, DType::F32);
  ValueId attn_mask = g.add_input("attention_mask", Shape{1, s, s});
  ValueId mlm_labels = g.add_input("mlm_labels", Shape{s}, DType::F32);

  // ---- embeddings ---------------------------------------------------------
  begin_layer("embeddings");
  ValueId tok_table = g.add_param("embeddings.word", Shape{cfg.vocab, h});
  ValueId x = g.add_task("embeddings.word_lookup", OpKind::Embedding,
                         {input_ids, tok_table}, Shape{s, h});
  ValueId pos_table = g.add_param("embeddings.position", Shape{s, h});
  x = g.add_task("embeddings.add_pos", OpKind::Add, {x, pos_table},
                 Shape{s, h});
  x = layer_norm(g, "embeddings.ln", x, Shape{s, h});
  end_layer();

  // ---- encoder layers -----------------------------------------------------
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const std::string p = "layer" + std::to_string(l);
    begin_layer(p);

    // Self-attention.
    ValueId q = linear(g, p + ".attn.q", x, s, h, h);
    ValueId k = linear(g, p + ".attn.k", x, s, h, h);
    ValueId v = linear(g, p + ".attn.v", x, s, h, h);
    auto split_heads = [&](ValueId t, const std::string& n) {
      ValueId r = g.add_task(p + ".attn." + n + "_split", OpKind::Reshape, {t},
                             Shape{s, a, dh});
      return g.add_task(p + ".attn." + n + "_perm", OpKind::Transpose, {r},
                        Shape{a, s, dh},
                        DType::F32, OpAttrs{}.set("perm0", std::int64_t{1})
                                             .set("perm1", std::int64_t{0})
                                             .set("perm2", std::int64_t{2}));
    };
    ValueId qh = split_heads(q, "q");
    ValueId vh = split_heads(v, "v");
    // K is transposed to [a, dh, s] for the scores GEMM.
    ValueId kr = g.add_task(p + ".attn.k_split", OpKind::Reshape, {k},
                            Shape{s, a, dh});
    ValueId kh = g.add_task(p + ".attn.k_perm", OpKind::Transpose, {kr},
                            Shape{a, dh, s},
                            DType::F32, OpAttrs{}.set("perm0", std::int64_t{1})
                                                 .set("perm1", std::int64_t{2})
                                                 .set("perm2", std::int64_t{0}));
    ValueId scores = g.add_task(p + ".attn.scores", OpKind::MatMul, {qh, kh},
                                Shape{a, s, s});
    scores = g.add_task(p + ".attn.scale", OpKind::Scale, {scores},
                        Shape{a, s, s}, DType::F32,
                        OpAttrs{}.set("scale", 1.0 / std::sqrt(static_cast<double>(dh))));
    scores = g.add_task(p + ".attn.mask", OpKind::Add, {scores, attn_mask},
                        Shape{a, s, s});
    ValueId probs = g.add_task(p + ".attn.softmax", OpKind::Softmax, {scores},
                               Shape{a, s, s});
    ValueId ctx = g.add_task(p + ".attn.context", OpKind::MatMul, {probs, vh},
                             Shape{a, s, dh});
    ctx = g.add_task(p + ".attn.merge_perm", OpKind::Transpose, {ctx},
                     Shape{s, a, dh},
                     DType::F32, OpAttrs{}.set("perm0", std::int64_t{1})
                                          .set("perm1", std::int64_t{0})
                                          .set("perm2", std::int64_t{2}));
    ctx = g.add_task(p + ".attn.merge", OpKind::Reshape, {ctx}, Shape{s, h});
    ValueId attn_out = linear(g, p + ".attn.out", ctx, s, h, h);
    ValueId res1 = g.add_task(p + ".attn.residual", OpKind::Add,
                              {attn_out, x}, Shape{s, h});
    ValueId ln1 = layer_norm(g, p + ".attn.ln", res1, Shape{s, h});

    // Feed-forward network.
    ValueId ff = linear(g, p + ".ffn.fc1", ln1, s, h, ffn);
    ff = g.add_task(p + ".ffn.gelu", OpKind::Gelu, {ff}, Shape{s, ffn});
    ff = linear(g, p + ".ffn.fc2", ff, s, ffn, h);
    ValueId res2 =
        g.add_task(p + ".ffn.residual", OpKind::Add, {ff, ln1}, Shape{s, h});
    x = layer_norm(g, p + ".ffn.ln", res2, Shape{s, h});
    end_layer();
  }

  // ---- masked-LM head -----------------------------------------------------
  // The vocabulary projection here is the dominant op the paper calls out:
  // "the last layer of the BERT-Based model takes 40% of the overall
  //  computation time" (Section II-C).
  begin_layer("mlm_head");
  ValueId hxf = linear(g, "head.transform", x, s, h, h);
  hxf = g.add_task("head.gelu", OpKind::Gelu, {hxf}, Shape{s, h});
  hxf = layer_norm(g, "head.ln", hxf, Shape{s, h});
  ValueId dec_w = g.add_param("head.decoder.weight", Shape{h, cfg.vocab});
  ValueId logits = g.add_task("head.decoder", OpKind::MatMul, {hxf, dec_w},
                              Shape{s, cfg.vocab});
  ValueId dec_b = g.add_param("head.decoder.bias", Shape{cfg.vocab});
  logits = g.add_task("head.decoder.bias_add", OpKind::Add, {logits, dec_b},
                      Shape{s, cfg.vocab});
  ValueId loss = g.add_task("head.mlm_loss", OpKind::CrossEntropy,
                            {logits, mlm_labels}, Shape{});
  g.mark_output(loss);
  end_layer();

  return m;
}

}  // namespace rannc
