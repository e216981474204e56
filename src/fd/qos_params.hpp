// Quality-of-service parameters of the failure detectors, after
// Chen, Toueg, Aguilera (IEEE ToC 2002) as used in paper §6.2:
//
//   TD  — detection time: elapses between a crash and the moment every
//         monitoring process suspects it permanently (constant),
//   TMR — mistake recurrence time: start-to-start gap between two wrong
//         suspicions of a correct process (exponential),
//   TM  — mistake duration: how long a wrong suspicion lasts (exponential).
//
// Both are what the model draws: the gap from one mistake's start to the
// next one's (drawn at the start, so mistakes may overlap) and each
// mistake's own duration.  Overlapping mistakes merge into one suspicion,
// so with rho = TM / TMR a monitor observes suspicions recurring every
// e^rho * TMR and lasting (e^rho - 1) * TMR on average (the busy periods of
// an M/M/inf queue); both approach the drawn values as rho -> 0.
//
// All failure-detector modules are independent and identically distributed
// (one module per ordered process pair), exactly as the paper assumes.
#pragma once

namespace fdgm::fd {

struct QosParams {
  /// TD in ms.  Applied identically by every monitoring process.
  double detection_time = 0.0;

  /// Enables the wrong-suspicion renewal process (suspicion-steady runs).
  bool wrong_suspicions = false;

  /// Mean of the exponential TMR, in ms.  Only used when
  /// wrong_suspicions is true.
  double mistake_recurrence = 1e9;

  /// Mean of the exponential TM, in ms.  A mean of 0 produces point
  /// mistakes: suspect immediately followed by trust (paper Fig. 6).
  double mistake_duration = 0.0;
};

}  // namespace fdgm::fd
