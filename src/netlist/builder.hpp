#pragma once
// Structural netlist construction DSL.  The builder keeps a context
// (pipeline stage + functional unit) so generator code reads like
// structural RTL; every created gate is tagged for the per-stage SSTA
// grouping and the per-unit area/power breakdown.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"

namespace vipvt {

/// A bus is an ordered vector of nets, LSB first.
using Bus = std::vector<NetId>;

class NetlistBuilder {
 public:
  explicit NetlistBuilder(Design& design);

  Design& design() { return *design_; }
  const Library& lib() const { return design_->lib(); }

  // --- context ----------------------------------------------------------
  /// Enter a functional unit scope; names of gates created inside are
  /// prefixed with the unit path.  Returns the previous unit for restore.
  void push_unit(const std::string& name);
  void pop_unit();
  void set_stage(PipeStage stage) { stage_ = stage; }
  PipeStage stage() const { return stage_; }

  /// RAII unit scope.
  class UnitScope {
   public:
    UnitScope(NetlistBuilder& b, const std::string& name) : b_(b) {
      b_.push_unit(name);
    }
    ~UnitScope() { b_.pop_unit(); }
    UnitScope(const UnitScope&) = delete;
    UnitScope& operator=(const UnitScope&) = delete;

   private:
    NetlistBuilder& b_;
  };

  // --- ports & wires ------------------------------------------------------
  NetId input(const std::string& name);
  NetId clock_input(const std::string& name = "clk");
  void output(NetId net) { design_->mark_primary_output(net); }
  void output(const Bus& bus);
  Bus input_bus(const std::string& name, int width);
  NetId wire(const std::string& name);

  /// Constant nets via tie cells (memoized — one tie cell per value).
  NetId const0();
  NetId const1();

  // --- gates --------------------------------------------------------------
  /// Generic gate: instantiates the smallest-drive cell of `func`, returns
  /// the output net.  `ins` must match the function's input count
  /// (clock excluded; use dff() for sequential cells).
  NetId gate(CellFunc func, std::span<const NetId> ins);
  NetId gate(CellFunc func, std::initializer_list<NetId> ins);

  NetId inv(NetId a) { return gate(CellFunc::Inv, {a}); }
  NetId buf(NetId a) { return gate(CellFunc::Buf, {a}); }
  NetId and2(NetId a, NetId b) { return gate(CellFunc::And2, {a, b}); }
  NetId or2(NetId a, NetId b) { return gate(CellFunc::Or2, {a, b}); }
  NetId nand2(NetId a, NetId b) { return gate(CellFunc::Nand2, {a, b}); }
  NetId nor2(NetId a, NetId b) { return gate(CellFunc::Nor2, {a, b}); }
  NetId xor2(NetId a, NetId b) { return gate(CellFunc::Xor2, {a, b}); }
  NetId xnor2(NetId a, NetId b) { return gate(CellFunc::Xnor2, {a, b}); }
  /// s ? b : a
  NetId mux2(NetId a, NetId b, NetId s) { return gate(CellFunc::Mux2, {a, b, s}); }
  NetId maj3(NetId a, NetId b, NetId c) { return gate(CellFunc::Maj3, {a, b, c}); }

  /// D flip-flop clocked by the design clock; returns Q.
  NetId dff(NetId d);
  /// D flip-flop driving a pre-created Q net — needed for state loops
  /// (register-file hold paths, counters) where D logic reads Q.
  void dff_into(NetId d, NetId q);
  /// Flop an entire bus (pipeline register); tags flops with `stage()`.
  Bus dff_bus(const Bus& d);

  // --- bus utilities --------------------------------------------------------
  /// Reduction trees (balanced) over a bus.
  NetId reduce_or(const Bus& bus);
  NetId reduce_and(const Bus& bus);
  NetId reduce_xor(const Bus& bus);
  /// Bitwise ops.
  Bus bitwise(CellFunc func2, const Bus& a, const Bus& b);
  Bus invert(const Bus& a);
  /// Word-level 2:1 mux: s ? b : a.
  Bus mux2_bus(const Bus& a, const Bus& b, NetId s);
  /// Bus of constants from an integer literal (LSB first).
  Bus const_bus(std::uint64_t value, int width);

 private:
  std::string next_name(const char* kind);

  Design* design_;
  PipeStage stage_ = PipeStage::Other;
  UnitId unit_ = kUnitTop;
  std::vector<std::string> unit_stack_;
  std::vector<UnitId> unit_id_stack_;
  NetId const0_ = kInvalidNet;
  NetId const1_ = kInvalidNet;
  std::size_t gates_created_ = 0;
};

}  // namespace vipvt
