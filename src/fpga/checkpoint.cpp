#include "ash/fpga/checkpoint.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace ash::fpga {

namespace {

/// Collect every trap ensemble of an object in a canonical order (const
/// view for saving, mutable view for restoring).
std::vector<const bti::TrapEnsemble*> ensembles_of(const RingOscillator& ro) {
  std::vector<const bti::TrapEnsemble*> out;
  for (int s = 0; s < ro.stage_count(); ++s) {
    const auto& stage = ro.stage(s);
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&stage.lut.device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&stage.routing.device(d).ensemble());
    }
  }
  return out;
}

std::vector<bti::TrapEnsemble*> mutable_ensembles_of(RingOscillator& ro) {
  std::vector<bti::TrapEnsemble*> out;
  for (int s = 0; s < ro.stage_count(); ++s) {
    auto& stage = ro.stage(s);
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&stage.lut.device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&stage.routing.device(d).ensemble());
    }
  }
  return out;
}

std::vector<const bti::TrapEnsemble*> ensembles_of(const Fabric& fabric) {
  std::vector<const bti::TrapEnsemble*> out;
  for (int n = 0; n < fabric.node_count(); ++n) {
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&fabric.lut_at(n).device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&fabric.routing_at(n).device(d).ensemble());
    }
  }
  return out;
}

std::vector<bti::TrapEnsemble*> mutable_ensembles_of(Fabric& fabric) {
  std::vector<bti::TrapEnsemble*> out;
  for (int n = 0; n < fabric.node_count(); ++n) {
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&fabric.lut_at(n).device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&fabric.routing_at(n).device(d).ensemble());
    }
  }
  return out;
}

void write(std::ostream& os, const char* kind,
           const std::vector<const bti::TrapEnsemble*>& ensembles) {
  os << "ash-checkpoint v" << kCheckpointVersion << " " << kind
     << " devices=" << ensembles.size() << "\n";
  os.precision(17);
  for (const auto* e : ensembles) {
    os << "D " << e->trap_count();
    for (double occ : e->occupancies()) os << ' ' << occ;
    os << '\n';
  }
  os << "end\n";
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

void read(std::istream& is, const char* kind,
          const std::vector<bti::TrapEnsemble*>& ensembles) {
  std::string line;
  if (!std::getline(is, line)) fail("empty stream");
  std::istringstream header(line);
  std::string magic;
  std::string version;
  std::string got_kind;
  std::string devices;
  header >> magic >> version >> got_kind >> devices;
  if (magic != "ash-checkpoint") fail("bad magic");
  if (version != std::string("v").append(std::to_string(kCheckpointVersion))) {
    fail("unsupported version '" + version + "'");
  }
  if (got_kind != kind) {
    fail("kind mismatch: stream has '" + got_kind + "', object is '" +
         std::string(kind) + "'");
  }
  const std::string expect = "devices=" + std::to_string(ensembles.size());
  if (devices != expect) fail("device count mismatch (" + devices + ")");

  // Parse into a staging area first so a malformed stream cannot leave the
  // object half-restored.
  std::vector<std::vector<double>> staged;
  staged.reserve(ensembles.size());
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    if (!std::getline(is, line)) fail("truncated stream");
    std::istringstream row(line);
    std::string tag;
    int traps = 0;
    row >> tag >> traps;
    if (tag != "D") fail("bad device row");
    if (traps != ensembles[i]->trap_count()) {
      fail("trap count mismatch on device " + std::to_string(i));
    }
    std::vector<double> occ(static_cast<std::size_t>(traps));
    for (auto& v : occ) {
      if (!(row >> v)) fail("short device row");
      if (v < 0.0 || v > 1.0) fail("occupancy out of range");
    }
    staged.push_back(std::move(occ));
  }
  if (!std::getline(is, line) || line != "end") fail("missing trailer");

  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    ensembles[i]->set_occupancies(staged[i]);
  }
}

}  // namespace

void save_checkpoint(std::ostream& os, const RingOscillator& ro) {
  write(os, "ring-oscillator", ensembles_of(ro));
}

void save_checkpoint(std::ostream& os, const FpgaChip& chip) {
  write(os, "chip", ensembles_of(chip.ro()));
}

void save_checkpoint(std::ostream& os, const Fabric& fabric) {
  write(os, "fabric", ensembles_of(fabric));
}

void load_checkpoint(std::istream& is, RingOscillator& ro) {
  read(is, "ring-oscillator", mutable_ensembles_of(ro));
}

void load_checkpoint(std::istream& is, FpgaChip& chip) {
  read(is, "chip", mutable_ensembles_of(chip.ro()));
}

void load_checkpoint(std::istream& is, Fabric& fabric) {
  read(is, "fabric", mutable_ensembles_of(fabric));
}

std::string checkpoint_string(const FpgaChip& chip) {
  std::ostringstream os;
  save_checkpoint(os, chip);
  return os.str();
}

void restore_checkpoint(const std::string& state, FpgaChip& chip) {
  std::istringstream is(state);
  load_checkpoint(is, chip);
}

std::string read_embedded_checkpoint(std::istream& is) {
  std::string out;
  std::string line;
  while (std::getline(is, line)) {
    out += line;
    out += '\n';
    if (line == "end") return out;
  }
  fail("embedded checkpoint truncated (no trailer)");
}

}  // namespace ash::fpga
