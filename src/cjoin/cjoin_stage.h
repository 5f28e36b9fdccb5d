// CJoinStage: the CJOIN operator packaged as a QPipe stage (paper Fig. 2).
//
// Packets arriving here carry star-join sub-plans; the stage admits them to
// the shared CJOIN pipeline. Because it is a regular Stage, all of QPipe's
// SP machinery applies: with SP enabled (pull mode), two queries whose
// star sub-plans are identical share one CJOIN admission — the satellite
// reads the host's Shared Pages List, "saving admission costs and
// unnecessary book-keeping costs" exactly as the paper describes.

#pragma once

#include "cjoin/pipeline.h"
#include "cjoin/star_query.h"
#include "qpipe/stage.h"

namespace sharing {

class CJoinStage final : public Stage {
 public:
  CJoinStage(CJoinPipeline* pipeline, Options options,
             MetricsRegistry* metrics)
      : Stage("CJOIN", options, metrics), pipeline_(pipeline) {}

  CJoinPipeline* pipeline() const { return pipeline_; }

 protected:
  void RunPacket(Packet& packet) override;

 private:
  CJoinPipeline* pipeline_;
};

}  // namespace sharing
