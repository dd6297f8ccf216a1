// End-to-end disclosure-controlled database (Figure 2), served by the
// shard-aware DisclosureEngine: untrusted apps issue SQL against a guarded
// in-memory database; every query is labeled, checked against the
// principal's policy partitions, and either evaluated or refused —
// including cumulative (Chinese-Wall) tracking across queries. The same
// engine instance could serve these requests from any number of threads;
// at the end we print its aggregated per-tier statistics, and then swap the
// policy to a new epoch to show cumulative state restarting atomically.
//
//   $ ./examples/end_to_end_monitor
#include <cstdio>
#include <string>
#include <vector>

#include "cq/sql_parser.h"
#include "engine/disclosure_engine.h"
#include "engine/stats_json.h"

using namespace fdc;

int main() {
  // Alice's dataset from Figure 1(a).
  cq::Schema schema;
  (void)schema.AddRelation("Meetings", {"time", "person"});
  (void)schema.AddRelation("Contacts", {"person", "email", "position"});

  storage::Database db(&schema);
  (void)db.Insert("Meetings", {"9", "Jim"});
  (void)db.Insert("Meetings", {"10", "Cathy"});
  (void)db.Insert("Meetings", {"12", "Bob"});
  (void)db.Insert("Contacts", {"Jim", "jim@e.com", "Manager"});
  (void)db.Insert("Contacts", {"Cathy", "cathy@e.com", "Intern"});
  (void)db.Insert("Contacts", {"Bob", "bob@e.com", "Consultant"});

  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)");
  (void)catalog.AddViewText("meeting_times", "V(x) :- Meetings(x, y)");
  (void)catalog.AddViewText("contacts_full",
                            "V(x, y, z) :- Contacts(x, y, z)");

  // Alice's policy: an app may see her meetings or her contacts, not both
  // (§2.2's motivating policy).
  auto policy = policy::SecurityPolicy::Compile(
      catalog, {{"meetings_side", {catalog.FindByName("meetings_full")->id}},
                {"contacts_side", {catalog.FindByName("contacts_full")->id}}});
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }

  // A bounded principal lifecycle: live monitor state is capped and idle
  // principals are swept after 8 idle ticks — evicted principals keep a
  // compact residual so a returning app resumes its narrowed state.
  engine::EngineOptions options;
  options.principals.max_principals = 1024;
  options.principals.idle_ttl_ticks = 8;
  engine::DisclosureEngine engine(&db, &catalog, *policy, options);

  struct Step {
    const char* principal;
    const char* sql;
  };
  const std::vector<Step> session = {
      {"scheduler", "SELECT time FROM Meetings"},
      {"scheduler", "SELECT time FROM Meetings WHERE person = 'Cathy'"},
      {"scheduler", "SELECT email FROM Contacts"},  // wall: refused
      {"crm", "SELECT person, email FROM Contacts WHERE position = 'Intern'"},
      {"crm", "SELECT time FROM Meetings"},         // wall: refused
      {"crm",
       "SELECT c.email FROM Contacts c JOIN Meetings m "
       "ON c.person = m.person"},                   // needs both: refused
  };

  auto run = [&engine](const Step& step) {
    std::printf("[%-9s] %s\n", step.principal, step.sql);
    auto rows = engine.QuerySql(step.principal, step.sql);
    if (!rows.ok()) {
      std::printf("            -> %s\n", rows.status().ToString().c_str());
      return;
    }
    std::printf("            -> %zu row(s):", rows->size());
    for (const storage::Tuple& row : *rows) {
      std::printf(" (");
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", row[i].c_str());
      }
      std::printf(")");
    }
    std::printf("\n");
  };
  for (const Step& step : session) run(step);

  std::printf(
      "\nscheduler stayed on the meetings side of the wall, crm on the\n"
      "contacts side; the cross join was refused for both reasons at once.\n");

  // A policy update publishes a new epoch atomically: cumulative state
  // restarts, so crm can now pick the meetings side.
  auto meetings_only = policy::SecurityPolicy::Compile(
      catalog, {{"meetings_side", {catalog.FindByName("meetings_full")->id}}});
  if (meetings_only.ok()) {
    std::printf("\n-- policy swap: meetings side only (epoch %llu) --\n",
                static_cast<unsigned long long>(
                    engine.UpdatePolicy(*meetings_only)));
    run({"crm", "SELECT time FROM Meetings"});
  }

  // A burst of decisions for one principal goes through SubmitBatch: the
  // labeler buckets every dissected atom by relation and runs the batch
  // mask kernel once per bucket, which is what the labeler's
  // batch_mask_evals stat below counts.
  {
    std::vector<cq::ConjunctiveQuery> burst;
    for (const char* sql :
         {"SELECT time FROM Meetings", "SELECT person FROM Meetings",
          "SELECT time FROM Meetings WHERE person = 'Bob'"}) {
      auto parsed = cq::ParseSql(sql, schema);
      if (parsed.ok()) burst.push_back(*std::move(parsed));
    }
    const std::vector<bool> decisions = engine.SubmitBatch("crm", burst);
    uint64_t ok = 0;
    for (const bool d : decisions) ok += d ? 1 : 0;
    std::printf("\n-- batched submit: %zu decisions (%llu accepted) --\n",
                decisions.size(), static_cast<unsigned long long>(ok));
  }

  // One maintenance sweep (normally driven by principal_sweep_interval).
  (void)engine.SweepPrincipals();

  // The engine's per-tier counters, in the one JSON schema shared with the
  // serving front end's /stats frame (engine/stats_json.h): what this
  // prints is byte-identical to what `DisclosureServer` answers on the
  // wire, so the same tooling parses both.
  std::printf("\nengine stats:\n%s\n",
              engine::StatsToJson(engine.Stats()).c_str());
  return 0;
}
