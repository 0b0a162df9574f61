#include "models/t5.h"

#include <cmath>
#include <string>

namespace rannc {

namespace {

/// PyTorch-convention linear (see models/bert.cpp).
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

/// Multi-head attention block: queries from x_q [n_q, h], keys/values from
/// x_kv [n_kv, h] (self-attention when x_q == x_kv, cross-attention when
/// x_kv is the encoder output), additive mask [1, n_q, n_kv].
ValueId attention(TaskGraph& g, const std::string& p, ValueId x_q,
                  ValueId x_kv, ValueId mask, std::int64_t n_q,
                  std::int64_t n_kv, std::int64_t h, std::int64_t a) {
  const std::int64_t dh = h / a;
  ValueId q = linear(g, p + ".q", x_q, n_q, h, h);
  ValueId k = linear(g, p + ".k", x_kv, n_kv, h, h);
  ValueId v = linear(g, p + ".v", x_kv, n_kv, h, h);
  auto split = [&](ValueId t, const std::string& n, std::int64_t len, bool kt) {
    ValueId r = g.add_task(p + "." + n + "_split", OpKind::Reshape, {t},
                           Shape{len, a, dh});
    OpAttrs perm;
    if (kt)
      perm.set("perm0", std::int64_t{1}).set("perm1", std::int64_t{2}).set("perm2", std::int64_t{0});
    else
      perm.set("perm0", std::int64_t{1}).set("perm1", std::int64_t{0}).set("perm2", std::int64_t{2});
    return g.add_task(p + "." + n + "_perm", OpKind::Transpose, {r},
                      kt ? Shape{a, dh, len} : Shape{a, len, dh}, DType::F32,
                      perm);
  };
  ValueId qh = split(q, "q", n_q, false);
  ValueId kh = split(k, "k", n_kv, true);
  ValueId vh = split(v, "v", n_kv, false);
  ValueId scores =
      g.add_task(p + ".scores", OpKind::MatMul, {qh, kh}, Shape{a, n_q, n_kv});
  scores = g.add_task(p + ".scale", OpKind::Scale, {scores},
                      Shape{a, n_q, n_kv}, DType::F32,
                      OpAttrs{}.set("scale", 1.0 / std::sqrt(static_cast<double>(dh))));
  scores = g.add_task(p + ".mask", OpKind::Add, {scores, mask},
                      Shape{a, n_q, n_kv});
  ValueId probs =
      g.add_task(p + ".softmax", OpKind::Softmax, {scores}, Shape{a, n_q, n_kv});
  ValueId ctx =
      g.add_task(p + ".context", OpKind::MatMul, {probs, vh}, Shape{a, n_q, dh});
  ctx = g.add_task(p + ".merge_perm", OpKind::Transpose, {ctx},
                   Shape{n_q, a, dh}, DType::F32,
                   OpAttrs{}.set("perm0", std::int64_t{1})
                            .set("perm1", std::int64_t{0})
                            .set("perm2", std::int64_t{2}));
  ctx = g.add_task(p + ".merge", OpKind::Reshape, {ctx}, Shape{n_q, h});
  return linear(g, p + ".out", ctx, n_q, h, h);
}

ValueId ffn_block(TaskGraph& g, const std::string& p, ValueId x,
                  std::int64_t n, std::int64_t h, std::int64_t f) {
  ValueId y = linear(g, p + ".fc1", x, n, h, f);
  y = g.add_task(p + ".relu", OpKind::Relu, {y}, Shape{n, f});  // T5 v1 uses ReLU
  return linear(g, p + ".fc2", y, n, f, h);
}

}  // namespace

std::int64_t T5Config::param_count() const {
  const std::int64_t h = hidden, f = ffn_dim();
  const std::int64_t s = seq_len, t = tgt_len();
  const std::int64_t attn = 4 * (h * h + h);
  const std::int64_t ln = 2 * h;
  const std::int64_t ffn_p = h * f + f + f * h + h;
  const std::int64_t enc_layer = attn + ln + ffn_p + ln;
  const std::int64_t dec_layer = attn + ln + attn + ln + ffn_p + ln;
  return vocab * h + (s + t) * h + layers * (enc_layer + dec_layer);
}

BuiltModel build_t5(const T5Config& cfg) {
  const std::int64_t h = cfg.hidden, f = cfg.ffn_dim(), a = cfg.num_heads();
  const std::int64_t s = cfg.seq_len, t = cfg.tgt_len();

  BuiltModel m;
  m.transformer = true;
  m.hidden = h;
  m.seq_len = s;
  TaskGraph& g = m.graph;
  auto begin_layer = [&](const std::string& name) {
    m.layers.push_back({name, static_cast<TaskId>(g.num_tasks()), 0});
  };
  auto end_layer = [&] {
    m.layers.back().end = static_cast<TaskId>(g.num_tasks());
  };

  ValueId enc_ids = g.add_input("encoder_ids", Shape{s}, DType::F32);
  ValueId enc_mask = g.add_input("encoder_mask", Shape{1, s, s});
  ValueId dec_ids = g.add_input("decoder_ids", Shape{t}, DType::F32);
  ValueId causal_mask = g.add_input("causal_mask", Shape{1, t, t});
  ValueId cross_mask = g.add_input("cross_mask", Shape{1, t, s});
  ValueId labels = g.add_input("labels", Shape{t}, DType::F32);

  // Shared token embedding (encoder, decoder and LM head all use it).
  ValueId wte = g.add_param("shared.wte", Shape{cfg.vocab, h});

  // ---- encoder --------------------------------------------------------------
  begin_layer("encoder.embeddings");
  ValueId x = g.add_task("encoder.embed", OpKind::Embedding, {enc_ids, wte},
                         Shape{s, h});
  ValueId pos_e = g.add_param("encoder.position", Shape{s, h});
  x = g.add_task("encoder.add_pos", OpKind::Add, {x, pos_e}, Shape{s, h});
  end_layer();
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const std::string p = "encoder.layer" + std::to_string(l);
    begin_layer(p);
    ValueId attn_out = attention(g, p + ".self", x, x, enc_mask, s, s, h, a);
    ValueId res1 = g.add_task(p + ".self.residual", OpKind::Add, {attn_out, x},
                              Shape{s, h});
    ValueId ln1 = layer_norm(g, p + ".self.ln", res1, Shape{s, h});
    ValueId ff = ffn_block(g, p + ".ffn", ln1, s, h, f);
    ValueId res2 =
        g.add_task(p + ".ffn.residual", OpKind::Add, {ff, ln1}, Shape{s, h});
    x = layer_norm(g, p + ".ffn.ln", res2, Shape{s, h});
    end_layer();
  }
  const ValueId enc_out = x;  // consumed by every decoder layer

  // ---- decoder --------------------------------------------------------------
  begin_layer("decoder.embeddings");
  ValueId y = g.add_task("decoder.embed", OpKind::Embedding, {dec_ids, wte},
                         Shape{t, h});
  ValueId pos_d = g.add_param("decoder.position", Shape{t, h});
  y = g.add_task("decoder.add_pos", OpKind::Add, {y, pos_d}, Shape{t, h});
  end_layer();
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const std::string p = "decoder.layer" + std::to_string(l);
    begin_layer(p);
    ValueId self_out =
        attention(g, p + ".self", y, y, causal_mask, t, t, h, a);
    ValueId res1 = g.add_task(p + ".self.residual", OpKind::Add, {self_out, y},
                              Shape{t, h});
    ValueId ln1 = layer_norm(g, p + ".self.ln", res1, Shape{t, h});
    // Cross-attention: the non-chain edge back to the encoder output.
    ValueId cross_out =
        attention(g, p + ".cross", ln1, enc_out, cross_mask, t, s, h, a);
    ValueId res2 = g.add_task(p + ".cross.residual", OpKind::Add,
                              {cross_out, ln1}, Shape{t, h});
    ValueId ln2 = layer_norm(g, p + ".cross.ln", res2, Shape{t, h});
    ValueId ff = ffn_block(g, p + ".ffn", ln2, t, h, f);
    ValueId res3 =
        g.add_task(p + ".ffn.residual", OpKind::Add, {ff, ln2}, Shape{t, h});
    y = layer_norm(g, p + ".ffn.ln", res3, Shape{t, h});
    end_layer();
  }

  // ---- LM head (tied to the shared embedding) --------------------------------
  begin_layer("lm_head");
  ValueId wte_t = g.add_task("lm_head.tie_transpose", OpKind::Transpose, {wte},
                             Shape{h, cfg.vocab}, DType::F32,
                             OpAttrs{}.set("perm0", std::int64_t{1})
                                      .set("perm1", std::int64_t{0}));
  ValueId logits =
      g.add_task("lm_head.decoder", OpKind::MatMul, {y, wte_t}, Shape{t, cfg.vocab});
  ValueId loss = g.add_task("lm_head.loss", OpKind::CrossEntropy,
                            {logits, labels}, Shape{});
  g.mark_output(loss);
  end_layer();

  return m;
}

}  // namespace rannc
