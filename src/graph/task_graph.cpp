#include "graph/task_graph.h"

#include <sstream>
#include <stdexcept>

namespace rannc {

std::string Shape::str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) os << ',';
    os << dims[i];
  }
  os << ']';
  return os.str();
}

const char* dtype_name(DType dt) {
  switch (dt) {
    case DType::F32: return "f32";
    case DType::F16: return "f16";
    case DType::I64: return "i64";
    case DType::Bool: return "bool";
  }
  return "?";
}

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::MatMul: return "matmul";
    case OpKind::Transpose: return "transpose";
    case OpKind::Reshape: return "reshape";
    case OpKind::Add: return "add";
    case OpKind::Mul: return "mul";
    case OpKind::Scale: return "scale";
    case OpKind::Gelu: return "gelu";
    case OpKind::Relu: return "relu";
    case OpKind::Tanh: return "tanh";
    case OpKind::Softmax: return "softmax";
    case OpKind::LayerNorm: return "layernorm";
    case OpKind::Dropout: return "dropout";
    case OpKind::Embedding: return "embedding";
    case OpKind::CrossEntropy: return "cross_entropy";
    case OpKind::Conv2d: return "conv2d";
    case OpKind::BatchNorm2d: return "batchnorm2d";
    case OpKind::MaxPool2d: return "maxpool2d";
    case OpKind::GlobalAvgPool2d: return "global_avgpool2d";
    case OpKind::Flatten: return "flatten";
    case OpKind::Concat: return "concat";
    case OpKind::Identity: return "identity";
  }
  return "?";
}

ValueId TaskGraph::add_value(std::string name, Shape shape, DType dtype,
                             ValueKind kind) {
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.name = std::move(name);
  v.shape = std::move(shape);
  v.dtype = dtype;
  v.kind = kind;
  values_.push_back(std::move(v));
  return values_.back().id;
}

ValueId TaskGraph::add_input(std::string name, Shape shape, DType dtype) {
  return add_value(std::move(name), std::move(shape), dtype, ValueKind::Input);
}

ValueId TaskGraph::add_param(std::string name, Shape shape, DType dtype) {
  return add_value(std::move(name), std::move(shape), dtype, ValueKind::Param);
}

ValueId TaskGraph::add_task(std::string name, OpKind kind,
                            std::vector<ValueId> inputs, Shape out_shape,
                            DType out_dtype, OpAttrs attrs) {
  for (ValueId in : inputs) {
    if (in < 0 || static_cast<std::size_t>(in) >= values_.size())
      throw std::logic_error("add_task: input value id out of range");
  }
  Task t;
  t.id = static_cast<TaskId>(tasks_.size());
  t.name = std::move(name);
  t.kind = kind;
  t.inputs = std::move(inputs);
  t.attrs = std::move(attrs);
  ValueId out = add_value(t.name + ".out", std::move(out_shape), out_dtype,
                          ValueKind::Intermediate);
  t.output = out;
  values_[static_cast<std::size_t>(out)].producer = t.id;
  for (ValueId in : t.inputs)
    values_[static_cast<std::size_t>(in)].consumers.push_back(t.id);
  tasks_.push_back(std::move(t));
  return out;
}

void TaskGraph::mark_output(ValueId v) {
  values_.at(static_cast<std::size_t>(v)).is_output = true;
}

std::vector<ValueId> TaskGraph::input_values() const {
  std::vector<ValueId> out;
  for (const Value& v : values_)
    if (v.kind == ValueKind::Input) out.push_back(v.id);
  return out;
}

std::vector<ValueId> TaskGraph::output_values() const {
  std::vector<ValueId> out;
  for (const Value& v : values_)
    if (v.is_output) out.push_back(v.id);
  return out;
}

std::vector<TaskId> TaskGraph::topo_order() const {
  // Insertion order is topological: add_task only consumes existing values.
  std::vector<TaskId> order(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    order[i] = static_cast<TaskId>(i);
  return order;
}

std::int64_t TaskGraph::num_params() const {
  std::int64_t n = 0;
  for (const Value& v : values_)
    if (v.kind == ValueKind::Param) n += v.shape.numel();
  return n;
}

std::int64_t TaskGraph::param_bytes() const {
  std::int64_t n = 0;
  for (const Value& v : values_)
    if (v.kind == ValueKind::Param) n += v.bytes();
  return n;
}

std::string TaskGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=TB;\n";
  for (const Task& t : tasks_)
    os << "  t" << t.id << " [shape=box,label=\"" << t.name << "\\n"
       << op_name(t.kind) << "\"];\n";
  for (const Value& v : values_) {
    const char* color = v.kind == ValueKind::Param     ? "gray"
                        : v.kind == ValueKind::Input   ? "lightblue"
                        : v.is_output                  ? "orange"
                                                       : "white";
    os << "  v" << v.id << " [shape=ellipse,style=filled,fillcolor=" << color
       << ",label=\"" << v.name << "\\n" << v.shape.str() << "\"];\n";
  }
  for (const Task& t : tasks_) {
    for (ValueId in : t.inputs) os << "  v" << in << " -> t" << t.id << ";\n";
    os << "  t" << t.id << " -> v" << t.output << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rannc
