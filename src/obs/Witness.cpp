//===- Witness.cpp - Per-execution verdict evidence -----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "obs/Witness.h"

#include "support/StringUtils.h"

#include <map>
#include <set>

using namespace cats;
using namespace cats::obs;

const char *cats::obs::witnessKindName(WitnessKind K) {
  switch (K) {
  case WitnessKind::AllowedExecution:
    return "allowed-execution";
  case WitnessKind::AxiomCycle:
    return "axiom-cycle";
  case WitnessKind::PruneCut:
    return "prune-cut";
  case WitnessKind::UnreachableOutcome:
    return "unreachable-outcome";
  }
  return "?";
}

bool cats::obs::witnessKindFromName(const std::string &Name,
                                    WitnessKind &Out) {
  if (Name == "allowed-execution")
    Out = WitnessKind::AllowedExecution;
  else if (Name == "axiom-cycle")
    Out = WitnessKind::AxiomCycle;
  else if (Name == "prune-cut")
    Out = WitnessKind::PruneCut;
  else if (Name == "unreachable-outcome")
    Out = WitnessKind::UnreachableOutcome;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

void cats::obs::populateExecution(Witness &W, const Execution &Exe) {
  W.Events.clear();
  W.Edges.clear();
  for (const Event &E : Exe.events()) {
    WitnessEvent Node;
    Node.Id = E.Id;
    Node.Thread = E.Thread;
    Node.Desc = E.toString(Exe.LocationNames);
    Node.Init = E.IsInit;
    W.Events.push_back(std::move(Node));
  }

  // po: the per-thread successor steps only (po is a transitive total
  // order per thread; drawing its closure buries the graph).
  for (unsigned T = 0; T < Exe.numThreads(); ++T) {
    const std::vector<EventId> Thread = Exe.threadEvents(static_cast<int>(T));
    for (size_t I = 0; I + 1 < Thread.size(); ++I)
      W.Edges.push_back({Thread[I], Thread[I + 1], "po"});
  }
  // rf: every pair.
  for (auto [From, To] : Exe.Rf.pairs())
    W.Edges.push_back({From, To, "rf"});
  // co: the immediate steps (co is transitively closed per location).
  Relation CoStep = Exe.Co - Exe.Co.compose(Exe.Co);
  for (auto [From, To] : CoStep.pairs())
    W.Edges.push_back({From, To, "co"});
  // fr: every pair (fr is not an order; there is nothing to reduce).
  for (auto [From, To] : Exe.fr().pairs())
    W.Edges.push_back({From, To, "fr"});
}

Witness cats::obs::makeAllowedWitness(const std::string &Test,
                                      const std::string &Model,
                                      const Execution &Exe,
                                      const std::string &OutcomeKey) {
  Witness W;
  W.Test = Test;
  W.Model = Model;
  W.Verdict = "Allow";
  W.Kind = WitnessKind::AllowedExecution;
  W.Outcome = OutcomeKey;
  populateExecution(W, Exe);
  return W;
}

Witness cats::obs::makeKillWitness(const std::string &Test, const Model &M,
                                   Axiom A, const Execution &Exe,
                                   const std::string &OutcomeKey) {
  Witness W;
  W.Test = Test;
  W.Model = M.name();
  W.Verdict = "Forbid";
  W.Kind = WitnessKind::AxiomCycle;
  W.Axiom = axiomName(A);
  W.Outcome = OutcomeKey;
  populateExecution(W, Exe);
  W.Cycle = M.explainViolation(A, Exe);
  return W;
}

Witness cats::obs::makePruneCutWitness(const std::string &Test,
                                       const Execution &Partial,
                                       std::vector<LabeledEdge> Cycle) {
  Witness W;
  W.Test = Test;
  W.Model = "*";
  W.Verdict = "Forbid";
  W.Kind = WitnessKind::PruneCut;
  W.Axiom = axiomName(Axiom::ScPerLocation);
  populateExecution(W, Partial);
  W.Cycle = std::move(Cycle);
  return W;
}

Witness cats::obs::makeUnreachableWitness(const std::string &Test,
                                          const std::string &Model) {
  Witness W;
  W.Test = Test;
  W.Model = Model;
  W.Verdict = "Forbid";
  W.Kind = WitnessKind::UnreachableOutcome;
  return W;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

namespace {

JsonValue edgesToJson(const std::vector<LabeledEdge> &Edges) {
  JsonValue Out = JsonValue::array();
  for (const LabeledEdge &E : Edges) {
    JsonValue J = JsonValue::object();
    J.set("from", static_cast<unsigned long long>(E.From));
    J.set("to", static_cast<unsigned long long>(E.To));
    J.set("label", E.Label);
    Out.push(std::move(J));
  }
  return Out;
}

std::string stringOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

Status edgesFromJson(const JsonValue *V, std::vector<LabeledEdge> &Out) {
  if (!V)
    return Status::success();
  if (!V->isArray())
    return Status::error("edge list is not an array");
  for (const JsonValue &E : V->elements()) {
    if (!E.isObject())
      return Status::error("edge entry is not an object");
    const JsonValue *From = E.get("from"), *To = E.get("to");
    if (!From || !From->isNumber() || !To || !To->isNumber())
      return Status::error("edge entry without numeric endpoints");
    LabeledEdge Edge;
    Edge.From = static_cast<EventId>(From->asNumber());
    Edge.To = static_cast<EventId>(To->asNumber());
    Edge.Label = stringOf(E, "label");
    Out.push_back(std::move(Edge));
  }
  return Status::success();
}

} // namespace

JsonValue cats::obs::witnessToJson(const Witness &W) {
  JsonValue Out = JsonValue::object();
  Out.set("test", W.Test);
  Out.set("model", W.Model);
  Out.set("verdict", W.Verdict);
  Out.set("kind", witnessKindName(W.Kind));
  if (!W.Axiom.empty())
    Out.set("axiom", W.Axiom);
  if (!W.Outcome.empty())
    Out.set("outcome", W.Outcome);
  JsonValue Events = JsonValue::array();
  for (const WitnessEvent &E : W.Events) {
    JsonValue J = JsonValue::object();
    J.set("id", static_cast<unsigned long long>(E.Id));
    J.set("thread", E.Thread);
    J.set("desc", E.Desc);
    if (E.Init)
      J.set("init", true);
    Events.push(std::move(J));
  }
  Out.set("events", std::move(Events));
  Out.set("edges", edgesToJson(W.Edges));
  if (!W.Cycle.empty())
    Out.set("cycle", edgesToJson(W.Cycle));
  return Out;
}

Expected<Witness> cats::obs::witnessFromJson(const JsonValue &V) {
  using Ret = Expected<Witness>;
  if (!V.isObject())
    return Ret::error("witness entry is not an object");
  Witness W;
  W.Test = stringOf(V, "test");
  W.Model = stringOf(V, "model");
  W.Verdict = stringOf(V, "verdict");
  if (W.Test.empty() || W.Model.empty())
    return Ret::error("witness entry without test/model");
  if (!witnessKindFromName(stringOf(V, "kind"), W.Kind))
    return Ret::error("witness entry with unknown kind");
  W.Axiom = stringOf(V, "axiom");
  W.Outcome = stringOf(V, "outcome");
  if (const JsonValue *Events = V.get("events")) {
    if (!Events->isArray())
      return Ret::error("witness 'events' is not an array");
    for (const JsonValue &E : Events->elements()) {
      if (!E.isObject())
        return Ret::error("witness event is not an object");
      const JsonValue *Id = E.get("id"), *Thread = E.get("thread");
      if (!Id || !Id->isNumber())
        return Ret::error("witness event without an id");
      WitnessEvent Node;
      Node.Id = static_cast<EventId>(Id->asNumber());
      Node.Thread =
          Thread && Thread->isNumber() ? static_cast<int>(Thread->asNumber())
                                       : -1;
      Node.Desc = stringOf(E, "desc");
      const JsonValue *Init = E.get("init");
      Node.Init = Init && Init->isBool() && Init->asBool();
      W.Events.push_back(std::move(Node));
    }
  }
  if (Status S = edgesFromJson(V.get("edges"), W.Edges); S.failed())
    return Ret::error(S.message());
  if (Status S = edgesFromJson(V.get("cycle"), W.Cycle); S.failed())
    return Ret::error(S.message());
  return W;
}

JsonValue cats::obs::witnessSectionToJson(
    const std::vector<Witness> &Witnesses) {
  JsonValue Out = JsonValue::object();
  Out.set("schema", WitnessSchema);
  JsonValue List = JsonValue::array();
  for (const Witness &W : Witnesses)
    List.push(witnessToJson(W));
  Out.set("witnesses", std::move(List));
  return Out;
}

Expected<std::vector<Witness>>
cats::obs::witnessSectionFromJson(const JsonValue &V) {
  using Ret = Expected<std::vector<Witness>>;
  if (!V.isObject() || stringOf(V, "schema") != WitnessSchema)
    return Ret::error("not a cats-witness/1 section");
  const JsonValue *List = V.get("witnesses");
  if (!List || !List->isArray())
    return Ret::error("witness section without a 'witnesses' array");
  std::vector<Witness> Out;
  for (const JsonValue &E : List->elements()) {
    auto W = witnessFromJson(E);
    if (!W)
      return Ret::error(W.message());
    Out.push_back(W.take());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// DOT
//===----------------------------------------------------------------------===//

namespace {

std::string dotEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Edge colors in the herd7 palette spirit: communications stand out,
/// program order stays black.
const char *edgeColor(const std::string &Label) {
  if (Label.rfind("rf", 0) == 0)
    return "red";
  if (Label.rfind("co", 0) == 0)
    return "blue";
  if (Label.rfind("fr", 0) == 0 && Label.rfind("fence", 0) != 0)
    return "#b8860b";
  if (Label.rfind("fence", 0) == 0 || Label == "ppo")
    return "darkgreen";
  if (Label == "prop")
    return "purple";
  return "black";
}

} // namespace

std::string cats::obs::witnessToDot(const Witness &W) {
  std::string Out;
  Out += "digraph \"" + dotEscape(W.Test + "@" + W.Model) + "\" {\n";
  std::string Title = W.Test + " @ " + W.Model + ": " + W.Verdict;
  if (!W.Axiom.empty())
    Title += " (" + W.Axiom + ")";
  if (W.Kind == WitnessKind::PruneCut)
    Title += " [prune cut]";
  else if (W.Kind == WitnessKind::UnreachableOutcome)
    Title += " [outcome unreachable]";
  Out += "  label=\"" + dotEscape(Title) + "\";\n";
  Out += "  labelloc=\"t\";\n";
  Out += "  node [shape=box, fontname=\"Helvetica\"];\n";
  Out += "  edge [fontname=\"Helvetica\"];\n";

  // Nodes: init writes at top level, program events clustered per thread.
  std::map<int, std::vector<const WitnessEvent *>> ByThread;
  for (const WitnessEvent &E : W.Events) {
    if (E.Init || E.Thread < 0)
      Out += strFormat("  e%u [label=\"%s\", style=dashed];\n", E.Id,
                       dotEscape(E.Desc).c_str());
    else
      ByThread[E.Thread].push_back(&E);
  }
  for (const auto &[Thread, Events] : ByThread) {
    Out += strFormat("  subgraph cluster_t%d {\n", Thread);
    Out += strFormat("    label=\"Thread %d\";\n", Thread);
    for (const WitnessEvent *E : Events)
      Out += strFormat("    e%u [label=\"%s\"];\n", E->Id,
                       dotEscape(E->Desc).c_str());
    Out += "  }\n";
  }

  // Cycle edges first (highlighted); skeleton edges on the same (from,
  // to) pair are suppressed so the violation reads as one loop.
  std::set<std::pair<EventId, EventId>> InCycle;
  for (const LabeledEdge &E : W.Cycle) {
    InCycle.emplace(E.From, E.To);
    Out += strFormat(
        "  e%u -> e%u [label=\"%s\", color=\"red\", fontcolor=\"red\", "
        "penwidth=2.4];\n",
        E.From, E.To, dotEscape(E.Label).c_str());
  }
  for (const LabeledEdge &E : W.Edges) {
    if (InCycle.count({E.From, E.To}))
      continue;
    const char *Color = edgeColor(E.Label);
    Out += strFormat(
        "  e%u -> e%u [label=\"%s\", color=\"%s\", fontcolor=\"%s\"%s];\n",
        E.From, E.To, dotEscape(E.Label).c_str(), Color, Color,
        E.Label == "po" ? "" : ", constraint=false");
  }
  Out += "}\n";
  return Out;
}

std::string cats::obs::witnessFileStem(const Witness &W) {
  std::string Raw = W.Test + "@" + (W.Model == "*" ? "all" : W.Model);
  std::string Out;
  for (char C : Raw) {
    const bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                      (C >= '0' && C <= '9') || C == '.' || C == '-' ||
                      C == '_' || C == '+' || C == '@';
    Out += Safe ? C : '_';
  }
  return Out;
}
