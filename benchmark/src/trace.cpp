#include "trace.hpp"

#include <fstream>
#include <map>

#include "common/error.hpp"

namespace lbe::benchmark {

Tracer::Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record record;
  record.name = std::string(name);
  record.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  record.start_s = tracer_->now();
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(record));
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_s = tracer_->now();
  tracer_->open_.pop_back();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::size_t Tracer::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) return i;
  }
  throw InvariantError("no span named " + std::string(name));
}

double Tracer::total_under(std::size_t parent, std::string_view name) const {
  double sum = 0.0;
  for (const auto& record : records_) {
    if (record.parent == static_cast<int>(parent) && record.name == name) {
      sum += record.seconds();
    }
  }
  return sum;
}

double Tracer::self_seconds(std::size_t index) const {
  double children = 0.0;
  for (const auto& record : records_) {
    if (record.parent == static_cast<int>(index)) children += record.seconds();
  }
  return records_[index].seconds() - children;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  perf::Json events = perf::Json::array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    perf::Json event = perf::Json::object();
    event.set("name", record.name);
    event.set("cat", record.name.substr(0, record.name.find('.')));
    event.set("ph", "X");
    event.set("ts", record.start_s * 1e6);
    event.set("dur", record.seconds() * 1e6);
    event.set("pid", 1);
    event.set("tid", 1);
    perf::Json args = perf::Json::object();
    args.set("id", static_cast<int>(i));
    args.set("parent", record.parent);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  perf::Json doc = perf::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) throw IoError("cannot write " + path);
}

perf::Json Tracer::summary() const {
  struct Totals {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> spans;
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const std::string& name = records_[i].name;
    Totals& totals = spans[name];
    ++totals.count;
    totals.total += records_[i].seconds();
    const double self = self_seconds(i);
    totals.self += self;
    layers[name.substr(0, name.find('.'))] += self;
  }
  perf::Json by_span = perf::Json::object();
  for (const auto& [name, totals] : spans) {
    perf::Json entry = perf::Json::object();
    entry.set("count", totals.count);
    entry.set("total_s", totals.total);
    entry.set("self_s", totals.self);
    by_span.set(name, std::move(entry));
  }
  perf::Json by_layer = perf::Json::object();
  for (const auto& [layer, self] : layers) by_layer.set(layer, self);
  perf::Json doc = perf::Json::object();
  doc.set("spans", std::move(by_span));
  doc.set("layer_self_s", std::move(by_layer));
  return doc;
}

}  // namespace lbe::benchmark
