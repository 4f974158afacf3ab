#pragma once
// Field-by-field Metrics equality for the equivalence tests. The contracts
// (sharded vs serial, record vs replay, ...) are exact: both sides run the
// identical simulation, so even the FP sums match bit-for-bit. The field
// list is memsim's own (for_each_metric_field); a failure names the field.

#include <gtest/gtest.h>

#include "memsim/config.hpp"

inline void expect_metrics_equal(const raa::mem::Metrics& a,
                                 const raa::mem::Metrics& b) {
  raa::mem::for_each_metric_field([&](const char* name, auto field) {
    EXPECT_EQ(a.*field, b.*field) << name;
  });
  // The defaulted operator== must agree with the field-wise comparison.
  EXPECT_TRUE(a == b);
}
