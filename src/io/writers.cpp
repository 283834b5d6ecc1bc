#include "io/writers.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <vector>

#include "io/format.hpp"

namespace vipvt {

namespace {

bool is_simple_ident(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '$')) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string verilog_escape(const std::string& name) {
  // Bus bits like "instr[3]" are valid escaped identifiers; simple names
  // pass through, everything else gets the backslash-escape form.
  if (is_simple_ident(name)) return name;
  return "\\" + name + " ";
}

void write_verilog(std::ostream& os, const Design& design,
                   const VerilogOptions& opts) {
  const Library& lib = design.lib();
  const std::string module =
      opts.module_name.empty() ? design.name() : opts.module_name;

  if (opts.with_comments) {
    os << "// Structural netlist emitted by vipvt\n"
       << "// library: " << lib.name() << ", instances: "
       << design.num_instances() << ", nets: " << design.num_nets() << "\n";
  }
  os << "module " << verilog_escape(module) << " (";
  bool first = true;
  for (NetId n : design.primary_inputs()) {
    os << (first ? "" : ", ") << verilog_escape(design.net(n).name);
    first = false;
  }
  for (NetId n : design.primary_outputs()) {
    os << (first ? "" : ", ") << verilog_escape(design.net(n).name);
    first = false;
  }
  os << ");\n";

  for (NetId n : design.primary_inputs()) {
    os << "  input " << verilog_escape(design.net(n).name) << ";\n";
  }
  for (NetId n : design.primary_outputs()) {
    os << "  output " << verilog_escape(design.net(n).name) << ";\n";
  }
  for (NetId n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(n);
    if (net.is_primary_input || net.is_primary_output) continue;
    os << "  wire " << verilog_escape(net.name) << ";\n";
  }

  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    const Cell& cell = lib.cell(inst.cell);
    os << "  " << cell.name << " " << verilog_escape(inst.name) << " (";
    for (std::size_t p = 0; p < cell.pins.size(); ++p) {
      os << (p ? ", " : "") << "." << cell.pins[p].name << "("
         << verilog_escape(design.net(inst.conns[p]).name) << ")";
    }
    os << ");\n";
  }
  os << "endmodule\n";
}

void write_def(std::ostream& os, const Design& design, const Floorplan& fp,
               const DefOptions& opts) {
  const int dbu = opts.dbu_per_micron;
  auto to_dbu = [&](double um) {
    return static_cast<long long>(std::llround(um * dbu));
  };
  os << "VERSION 5.8 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n";
  os << "DESIGN " << design.name() << " ;\n";
  os << "UNITS DISTANCE MICRONS " << dbu << " ;\n";
  const Rect& die = fp.die();
  os << "DIEAREA ( " << to_dbu(die.lo.x) << " " << to_dbu(die.lo.y)
     << " ) ( " << to_dbu(die.hi.x) << " " << to_dbu(die.hi.y) << " ) ;\n";
  for (int r = 0; r < fp.num_rows(); ++r) {
    os << "ROW row_" << r << " core " << to_dbu(die.lo.x) << " "
       << to_dbu(fp.row_y(r)) << " " << (r % 2 ? "FS" : "N") << " DO "
       << fp.sites_per_row() << " BY 1 STEP " << to_dbu(fp.site_width())
       << " 0 ;\n";
  }

  std::size_t placed = 0;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    placed += design.instance(i).placed;
  }
  os << "COMPONENTS " << placed << " ;\n";
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    if (!inst.placed) continue;
    os << "  - " << inst.name << " " << design.cell_of(i).name << " + PLACED ( "
       << to_dbu(inst.pos.x) << " " << to_dbu(inst.pos.y) << " ) N ;\n";
  }
  os << "END COMPONENTS\n";

  const auto pins =
      design.primary_inputs().size() + design.primary_outputs().size();
  os << "PINS " << pins << " ;\n";
  for (NetId n : design.primary_inputs()) {
    os << "  - " << design.net(n).name << " + NET " << design.net(n).name
       << " + DIRECTION INPUT ;\n";
  }
  for (NetId n : design.primary_outputs()) {
    os << "  - " << design.net(n).name << " + NET " << design.net(n).name
       << " + DIRECTION OUTPUT ;\n";
  }
  os << "END PINS\nEND DESIGN\n";
}

void write_sdf(std::ostream& os, const Design& design, const StaEngine& sta,
               const SdfOptions& opts) {
  os << "(DELAYFILE\n"
     << "  (SDFVERSION \"3.0\")\n"
     << "  (DESIGN \"" << design.name() << "\")\n"
     << "  (PROCESS \"" << opts.process << "\")\n"
     << "  (TIMESCALE 1ns)\n";
  // Group arcs per instance for one CELL entry each.
  struct Arc {
    std::uint16_t from, to;
    double delay;
  };
  std::map<InstId, std::vector<Arc>> arcs;
  sta.for_each_cell_arc([&](InstId inst, std::uint16_t from, std::uint16_t to,
                            double delay) {
    double f = 1.0;
    if (!opts.inst_factor.empty()) f = opts.inst_factor[inst];
    arcs[inst].push_back({from, to, delay * f});
  });
  for (const auto& [inst_id, list] : arcs) {
    const Instance& inst = design.instance(inst_id);
    const Cell& cell = design.cell_of(inst_id);
    os << "  (CELL (CELLTYPE \"" << cell.name << "\")\n"
       << "    (INSTANCE " << inst.name << ")\n"
       << "    (DELAY (ABSOLUTE\n";
    for (const auto& arc : list) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6f", arc.delay);
      os << "      (IOPATH " << cell.pins[arc.from].name << " "
         << cell.pins[arc.to].name << " (" << buf << ") (" << buf << "))\n";
    }
    os << "    ))\n  )\n";
  }
  os << ")\n";
}

void write_liberty_summary(std::ostream& os, const Library& lib) {
  const CharParams& cp = lib.char_params();
  os << "/* vipvt library summary (liberty-flavoured, not a full NLDM dump) */\n";
  os << "library (" << lib.name() << ") {\n";
  os << "  /* corners: " << cp.vdd_low << "V, " << cp.vdd_high
     << "V; vth0 svt/hvt/uhvt = " << cp.vth0 << "/" << cp.vth0_hvt << "/"
     << cp.vth0_uhvt << " V */\n";
  os << "  time_unit : \"1ns\";\n  capacitive_load_unit (1, pf);\n";
  for (const auto& cell : lib.cells()) {
    os << "  cell (" << cell.name << ") {\n"
       << "    area : " << cell.area_um2 << ";\n"
       << "    cell_leakage_power : " << cell.leakage_mw[kVddLow] * 1e6
       << "; /* nW at " << cp.vdd_low << "V */\n";
    for (const auto& pin : cell.pins) {
      os << "    pin (" << pin.name << ") { direction : "
         << (pin.is_input ? "input" : "output");
      if (pin.is_input) os << "; capacitance : " << pin.cap_pf;
      if (pin.is_clock) os << "; clock : true";
      os << "; }\n";
    }
    if (!cell.arcs.empty()) {
      const auto& arc = cell.arcs.front();
      os << "    /* representative delay (slew 0.02ns, load 0.005pF): "
         << arc.corner[kVddLow].delay.lookup(0.02, 0.005) << "ns @"
         << cp.vdd_low << "V, "
         << arc.corner[kVddHigh].delay.lookup(0.02, 0.005) << "ns @"
         << cp.vdd_high << "V */\n";
    }
    os << "  }\n";
  }
  os << "}\n";
}

void write_verilog_file(const std::string& path, const Design& design,
                        const VerilogOptions& opts) {
  open_and_write(path, [&](std::ostream& os) { write_verilog(os, design, opts); });
}

void write_def_file(const std::string& path, const Design& design,
                    const Floorplan& fp, const DefOptions& opts) {
  open_and_write(path, [&](std::ostream& os) { write_def(os, design, fp, opts); });
}

void write_sdf_file(const std::string& path, const Design& design,
                    const StaEngine& sta, const SdfOptions& opts) {
  open_and_write(path, [&](std::ostream& os) { write_sdf(os, design, sta, opts); });
}

}  // namespace vipvt
