#include "ash/fpga/netlist.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ash/util/table.h"

namespace ash::fpga {

namespace {

[[noreturn]] void fail(const std::string& netlist, const std::string& what) {
  throw std::invalid_argument("Netlist '" + netlist + "': " + what);
}

}  // namespace

void Netlist::validate() const {
  std::unordered_set<std::string> driven;
  for (const auto& pi : primary_inputs) {
    if (pi.empty()) fail(name, "empty primary input name");
    if (!driven.insert(pi).second) fail(name, "duplicate net '" + pi + "'");
  }
  std::unordered_set<std::string> instance_names;
  for (const auto& node : nodes) {
    if (node.name.empty()) fail(name, "unnamed LUT instance");
    if (!instance_names.insert(node.name).second) {
      fail(name, "duplicate instance '" + node.name + "'");
    }
    if (node.output.empty()) {
      fail(name, "instance '" + node.name + "' drives no net");
    }
    if (!driven.insert(node.output).second) {
      fail(name, "net '" + node.output + "' driven more than once");
    }
  }
  for (const auto& node : nodes) {
    for (const auto& in : node.inputs) {
      if (driven.find(in) == driven.end()) {
        fail(name, "instance '" + node.name + "' reads undriven net '" + in +
                       "'");
      }
    }
  }
  if (primary_outputs.empty()) fail(name, "no primary outputs");
  for (const auto& po : primary_outputs) {
    if (driven.find(po) == driven.end()) {
      fail(name, "primary output '" + po + "' is undriven");
    }
  }
  topological_order();  // throws on cycles
}

std::vector<std::size_t> Netlist::topological_order() const {
  // Kahn's algorithm over LUT nodes; primary inputs have no producers.
  std::unordered_map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    producer[nodes[i].output] = i;
  }
  std::vector<int> pending(nodes.size(), 0);
  std::vector<std::vector<std::size_t>> users(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& in : nodes[i].inputs) {
      const auto it = producer.find(in);
      if (it != producer.end()) {
        ++pending[i];
        users[it->second].push_back(i);
      }
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (pending[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t n = ready[head];
    order.push_back(n);
    for (std::size_t u : users[n]) {
      if (--pending[u] == 0) ready.push_back(u);
    }
  }
  if (order.size() != nodes.size()) {
    fail(name, "combinational cycle detected");
  }
  return order;
}

Netlist inverter_chain(int stages) {
  if (stages < 1) {
    throw std::invalid_argument("inverter_chain: need >= 1 stage");
  }
  Netlist nl;
  nl.name = "inverter_chain" + std::to_string(stages);
  nl.primary_inputs = {"in"};
  std::string prev = "in";
  for (int i = 0; i < stages; ++i) {
    LutNode node;
    node.name = std::string("u").append(std::to_string(i));
    node.config = lut_not_a();
    node.inputs = {prev, prev};
    node.output =
        i + 1 == stages ? "out" : std::string("n").append(std::to_string(i));
    prev = node.output;
    nl.nodes.push_back(std::move(node));
  }
  nl.primary_outputs = {"out"};
  return nl;
}

Netlist ripple_carry_adder(int bits) {
  if (bits < 1) {
    throw std::invalid_argument("ripple_carry_adder: need >= 1 bit");
  }
  Netlist nl;
  nl.name = "rca" + std::to_string(bits);
  nl.primary_inputs.push_back("cin");
  for (int i = 0; i < bits; ++i) {
    nl.primary_inputs.push_back(strformat("a%d", i));
    nl.primary_inputs.push_back(strformat("b%d", i));
  }
  std::string carry = "cin";
  for (int i = 0; i < bits; ++i) {
    const std::string a = strformat("a%d", i);
    const std::string b = strformat("b%d", i);
    const std::string axb = strformat("axb%d", i);
    const std::string sum = strformat("s%d", i);
    const std::string and1 = strformat("ab%d", i);
    const std::string and2 = strformat("pc%d", i);
    const std::string cout =
        i + 1 == bits ? std::string("cout") : strformat("c%d", i + 1);
    // Full adder from 2-input LUTs:
    //   axb = a ^ b;  s = axb ^ cin;  ab = a & b;  pc = axb & cin;
    //   cout = ab | pc.
    nl.nodes.push_back({strformat("fa%d_x1", i), lut_xor(), {a, b}, axb});
    nl.nodes.push_back({strformat("fa%d_x2", i), lut_xor(), {axb, carry}, sum});
    nl.nodes.push_back({strformat("fa%d_a1", i), lut_and(), {a, b}, and1});
    nl.nodes.push_back(
        {strformat("fa%d_a2", i), lut_and(), {axb, carry}, and2});
    nl.nodes.push_back(
        {strformat("fa%d_o1", i), lut_or(), {and1, and2}, cout});
    nl.primary_outputs.push_back(sum);
    carry = cout;
  }
  nl.primary_outputs.push_back("cout");
  return nl;
}

Netlist c17() {
  Netlist nl;
  nl.name = "c17";
  nl.primary_inputs = {"n1", "n2", "n3", "n6", "n7"};
  nl.nodes = {
      {"g10", lut_nand(), {"n1", "n3"}, "n10"},
      {"g11", lut_nand(), {"n3", "n6"}, "n11"},
      {"g16", lut_nand(), {"n2", "n11"}, "n16"},
      {"g19", lut_nand(), {"n11", "n7"}, "n19"},
      {"g22", lut_nand(), {"n10", "n16"}, "n22"},
      {"g23", lut_nand(), {"n16", "n19"}, "n23"},
  };
  nl.primary_outputs = {"n22", "n23"};
  return nl;
}

}  // namespace ash::fpga
