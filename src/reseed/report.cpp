#include "reseed/report.h"

#include <sstream>

namespace fbist::reseed {

std::string solution_to_string(const ReseedingSolution& sol,
                               const std::string& label) {
  std::ostringstream ss;
  if (!label.empty()) ss << label << "\n";
  ss << "  triplets=" << sol.num_triplets() << " test_length=" << sol.test_length
     << " covered=" << sol.faults_covered << "/" << sol.faults_targeted;
  if (sol.faults_uncoverable > 0) {
    ss << " (uncoverable by candidates: " << sol.faults_uncoverable << ")";
  }
  ss << "\n  necessary=" << sol.necessary_count << " solver=" << sol.solver_count
     << " residual=" << sol.residual_rows << "x" << sol.residual_cols
     << " nodes=" << sol.solver_nodes
     << (sol.solver_optimal ? " [optimal]" : " [heuristic]") << "\n";
  for (const auto& st : sol.selected) {
    ss << "    #" << st.triplet_index << " " << st.triplet.to_string()
       << " assigned=" << st.assigned_faults
       << (st.necessary ? " [necessary]" : "") << "\n";
  }
  return ss.str();
}

}  // namespace fbist::reseed
