#include "online/status.h"

#include <sstream>
#include <string>

#include "obs/registry.h"
#include "util/atomic_file.h"
#include "util/check.h"

namespace leaps::online {

std::string render_status_json(const StatusInputs& inputs) {
  LEAPS_CHECK_MSG(inputs.server != nullptr, "status needs a server");
  const serve::MetricsSnapshot m = inputs.server->metrics().snapshot();
  std::ostringstream os;
  os << "{";
  m.append_json_members(
      os, {{"sessions", "\"active\":" +
                            std::to_string(inputs.server->sessions().active())},
           {"queues", "\"wait_p99_us\":" +
                          std::to_string(m.queue_wait.quantile_us(0.99))}});

  if (inputs.manager != nullptr) {
    const OnlineReport r = inputs.manager->report();
    os << ",\"online\":{\"phase\":\"" << r.phase << "\"";
    for (const OnlineScalar& s : r.scalars()) {
      os << ",\"" << s.key << "\":" << s.value;
    }
    os << "}";
    const DriftStatus& d = r.drift;
    os << ",\"drift\":{\"enabled\":" << (d.enabled ? "true" : "false")
       << ",\"generation\":" << d.generation
       << ",\"observed\":" << d.observed
       << ",\"reference_size\":" << d.reference_size
       << ",\"reference_frozen\":" << (d.reference_frozen ? "true" : "false")
       << ",\"live_size\":" << d.live_size << ",\"ks\":";
    obs::append_json_number(os, d.ks_statistic);
    os << ",\"p_value\":";
    obs::append_json_number(os, d.p_value);
    os << ",\"evaluations\":" << d.evaluations
       << ",\"triggers\":" << d.triggers << ",\"trigger_pending\":"
       << (d.trigger_pending ? "true" : "false")
       << ",\"last_trigger_lsn\":" << r.last_drift_trigger_lsn
       << ",\"sketch\":{";
    obs::append_summary_json(os, d.sketch);
    os << "},\"generations\":[";
    for (std::size_t g = 0; g < d.generations.size(); ++g) {
      if (g > 0) os << ",";
      os << "{\"generation\":" << g
         << ",\"benign\":" << d.generations[g].benign
         << ",\"malicious\":" << d.generations[g].malicious << "}";
    }
    os << "]}";
  } else {
    os << ",\"online\":null,\"drift\":null";
  }

  if (inputs.audit != nullptr) {
    os << ",\"audit\":{\"written\":" << inputs.audit->written()
       << ",\"dropped\":" << inputs.audit->dropped() << "}";
  } else {
    os << ",\"audit\":null";
  }

  if (inputs.attrib != nullptr) {
    const auto sessions = inputs.attrib->snapshot();
    os << ",\"attribution\":{\"sessions\":" << sessions.size()
       << ",\"flagged_windows\":" << inputs.attrib->flagged_total()
       << ",\"verdicts\":[";
    bool first = true;
    for (const auto& s : sessions) {
      for (const attrib::AttributionVerdict& v : s.verdicts) {
        if (!first) os << ",";
        first = false;
        os << "{\"type\":\"AttributionVerdict\",\"session\":"
           << obs::json_string(s.key.to_string())
           << ",\"signature\":" << obs::json_string(v.signature)
           << ",\"score\":";
        obs::append_json_number(os, v.score);
        os << ",\"nodes_matched\":" << v.nodes_matched
           << ",\"nodes_total\":" << v.nodes_total
           << ",\"edges_satisfied\":" << v.edges_satisfied
           << ",\"edges_total\":" << v.edges_total
           << ",\"first_window\":" << v.first_window
           << ",\"last_window\":" << v.last_window << "}";
      }
    }
    os << "]}";
  } else {
    os << ",\"attribution\":null";
  }
  os << "}";
  return os.str();
}

util::Status write_status_json(const std::string& path,
                               const StatusInputs& inputs) {
  const std::string body = render_status_json(inputs);
  return util::atomic_write_file(path, [&body](std::ostream& os) {
    os << body << '\n';
  });
}

}  // namespace leaps::online
