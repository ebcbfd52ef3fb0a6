#include "control/checkpoint.hpp"

#include <utility>

#include "io/artifacts.hpp"
#include "io/container.hpp"
#include "util/error.hpp"

namespace rumor::control {

namespace {

void put_doubles(io::ContainerWriter& writer, const char* name,
                 const std::vector<double>& values) {
  io::ByteWriter section;
  section.vec(values);
  writer.add_section(name, std::move(section));
}

std::vector<double> get_doubles(const io::ContainerReader& reader,
                                const char* name) {
  io::ByteReader section = reader.reader(name);
  auto values = section.vec<double>();
  section.expect_end();
  return values;
}

}  // namespace

void save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                           const std::string& path) {
  io::ContainerWriter writer(kSweepKind);

  io::ByteWriter meta;
  meta.u32(checkpoint.algorithm);
  meta.f64(checkpoint.tf);
  meta.f64(checkpoint.c1);
  meta.f64(checkpoint.c2);
  meta.f64(checkpoint.terminal_weight);
  meta.u64(checkpoint.iteration);
  meta.f64(checkpoint.relaxation);
  meta.u64(checkpoint.descent_streak);
  meta.f64(checkpoint.gradient_step);
  meta.f64(checkpoint.best_j);
  writer.add_section("sweep.meta", std::move(meta));

  put_doubles(writer, "sweep.grid", checkpoint.grid);
  put_doubles(writer, "sweep.e1", checkpoint.epsilon1);
  put_doubles(writer, "sweep.e2", checkpoint.epsilon2);
  put_doubles(writer, "sweep.beste1", checkpoint.best_epsilon1);
  put_doubles(writer, "sweep.beste2", checkpoint.best_epsilon2);
  put_doubles(writer, "sweep.jhist", checkpoint.objective_history);
  io::append_trajectory(writer, "state", checkpoint.state);
  io::append_trajectory(writer, "costate", checkpoint.costate);

  writer.write_file(path);
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  const auto container = io::ContainerReader::open(path);
  container->require_kind(kSweepKind);

  SweepCheckpoint checkpoint;
  io::ByteReader meta = container->reader("sweep.meta");
  checkpoint.algorithm = meta.u32();
  checkpoint.tf = meta.f64();
  checkpoint.c1 = meta.f64();
  checkpoint.c2 = meta.f64();
  checkpoint.terminal_weight = meta.f64();
  checkpoint.iteration = meta.u64();
  checkpoint.relaxation = meta.f64();
  checkpoint.descent_streak = meta.u64();
  checkpoint.gradient_step = meta.f64();
  checkpoint.best_j = meta.f64();
  meta.expect_end();

  checkpoint.grid = get_doubles(*container, "sweep.grid");
  checkpoint.epsilon1 = get_doubles(*container, "sweep.e1");
  checkpoint.epsilon2 = get_doubles(*container, "sweep.e2");
  checkpoint.best_epsilon1 = get_doubles(*container, "sweep.beste1");
  checkpoint.best_epsilon2 = get_doubles(*container, "sweep.beste2");
  checkpoint.objective_history = get_doubles(*container, "sweep.jhist");
  checkpoint.state = io::read_trajectory(*container, "state");
  checkpoint.costate = io::read_trajectory(*container, "costate");

  const std::size_t m = checkpoint.grid.size();
  if (checkpoint.epsilon1.size() != m || checkpoint.epsilon2.size() != m ||
      checkpoint.best_epsilon1.size() != m ||
      checkpoint.best_epsilon2.size() != m) {
    throw util::IoError("container " + path +
                        ": sweep control sections do not match the grid "
                        "length");
  }
  if (checkpoint.objective_history.size() < checkpoint.iteration) {
    throw util::IoError("container " + path +
                        ": sweep objective history is shorter than the "
                        "recorded iteration count");
  }
  return checkpoint;
}

}  // namespace rumor::control
