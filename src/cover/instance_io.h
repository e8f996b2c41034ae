// Covering-instance exchange format.
//
// Lets detection matrices (or any unicost set-covering instance) be
// dumped, versioned and re-solved offline — e.g. to compare this
// library's exact solver against an external ILP tool, which is exactly
// the role LINGO plays in the paper's flow.
//
// Format (read by the shared record codec, util/record.h: '#' comment
// lines, space-separated fields):
//   scp <rows> <cols>
//   row <col> <col> ...      one line per row: covered column indices
//
// Empty rows are legal (a triplet that detects nothing); every column
// must be covered by some row for the instance to be solvable.  The
// reader needs one line per declared row and caps an instance at 2^32
// cells (rows x cols), so a corrupt header fails by name instead of
// sizing an allocation the text cannot back.
#pragma once

#include <string>

#include "cover/detection_matrix.h"

namespace fbist::cover {

std::string instance_to_string(const DetectionMatrix& m);
/// Throws std::runtime_error with a line-numbered message on malformed
/// input.
DetectionMatrix instance_from_string(const std::string& text);

void write_instance_file(const DetectionMatrix& m, const std::string& path);
DetectionMatrix read_instance_file(const std::string& path);

}  // namespace fbist::cover
