# perfbench is its own top-level CMake project, so the src/ build looks for
# the git-sha script here; hand it to the repo's script unchanged.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_sha.cmake")
