/**
 * @file
 * Worker main loop implementation.
 */

#include "worker.hh"

#include "common/log.hh"
#include "serve/protocol.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"

namespace mopac::serve
{

namespace
{

/**
 * Checkpointed execution with a synchronous rendezvous: after every
 * durable snapshot the worker reports kCheckpointed and blocks for
 * the supervisor's verdict.  A preemption (or a scripted
 * kill-at-checkpoint in the tests) therefore lands at exactly the
 * checkpointed cycle, never mid-interval.  @p peer_gone is set when
 * the supervisor disappears mid-rendezvous.
 */
CheckpointOptions
rendezvous(int fd, const Assignment &assignment, const PointEvent &event,
           bool &peer_gone)
{
    CheckpointOptions ckpt;
    ckpt.save_path = assignment.ckpt_path;
    ckpt.restore_path = assignment.ckpt_path;
    ckpt.checkpoint_every = assignment.checkpoint_every;
    ckpt.on_checkpoint = [=, &peer_gone](const CheckpointBeat &beat) {
        PointEvent tick = event;
        tick.resumed_from = beat.resumed_from;
        tick.executed_cycles = beat.now - beat.resumed_from;
        Serializer ser;
        savePointEvent(ser, tick);
        if (sendMessage(fd, ser, MsgType::kCheckpointed, 10.0) !=
            IoStatus::kOk) {
            peer_gone = true;
            return CheckpointSignal::kPreempt;
        }
        ReceivedMessage verdict;
        try {
            verdict = recvMessage(fd, 30.0);
        } catch (const std::exception &err) {
            warn("worker: checkpoint rendezvous failed: {}",
                 err.what());
            peer_gone = true;
            return CheckpointSignal::kPreempt;
        }
        if (verdict.status == IoStatus::kPeerClosed) {
            peer_gone = true;
            return CheckpointSignal::kPreempt;
        }
        if (verdict.status == IoStatus::kTimeout) {
            // Supervisor wedged; keep making progress -- the snapshot
            // on disk stays valid either way.
            return CheckpointSignal::kContinue;
        }
        // Anything but an explicit ack is a request to yield.
        return verdict.type == MsgType::kCheckpointAck
                   ? CheckpointSignal::kContinue
                   : CheckpointSignal::kPreempt;
    };
    return ckpt;
}

/** Execute one assignment and report the result. */
bool
runAssignment(int fd, const Assignment &assignment)
{
    PointEvent event;
    event.point_id = assignment.point.point_id;
    event.attempt = assignment.attempt;

    Serializer start;
    savePointEvent(start, event);
    if (sendMessage(fd, start, MsgType::kPointStart, 10.0) !=
        IoStatus::kOk) {
        return false;
    }

    CheckpointedPointRun run;
    bool peer_gone = false;
    if (assignment.ckpt_path.empty()) {
        run.result = Runner::replay(assignment.point, assignment.opts);
    } else {
        run = Runner::replayCheckpointed(
            assignment.point, assignment.opts,
            rendezvous(fd, assignment, event, peer_gone));
    }
    if (peer_gone) {
        return false;
    }
    event.resumed_from = run.resumed_from;
    event.executed_cycles = run.executed_cycles;
    Serializer reply;
    savePointEvent(reply, event);
    if (!run.preempted) {
        savePointResult(reply, run.result);
    }
    return sendMessage(fd, reply,
                       run.preempted ? MsgType::kPointPreempted
                                     : MsgType::kPointDone,
                       30.0) == IoStatus::kOk;
}

} // namespace

int
workerMain(int fd, double heartbeat_sec)
{
    for (;;) {
        ReceivedMessage msg;
        try {
            msg = recvMessage(fd, heartbeat_sec);
        } catch (const std::exception &err) {
            warn("worker: receive failed: {}", err.what());
            return 1;
        }
        if (msg.status == IoStatus::kPeerClosed) {
            // Supervisor is gone; orphan workers must not linger.
            return 0;
        }
        if (msg.status == IoStatus::kTimeout) {
            if (sendEmptyMessage(fd, MsgType::kHeartbeat, 10.0) !=
                IoStatus::kOk) {
                return 0;
            }
            continue;
        }
        switch (msg.type) {
          case MsgType::kAssign: {
            Assignment assignment;
            try {
                assignment = loadAssignment(*msg.payload);
                msg.payload->finish();
            } catch (const std::exception &err) {
                warn("worker: bad assignment: {}", err.what());
                return 1;
            }
            if (!runAssignment(fd, assignment)) {
                return 0; // Supervisor gone mid-report.
            }
            break;
          }
          default:
            warn("worker: unexpected message type {}",
                 static_cast<std::uint64_t>(msg.type));
            return 1;
        }
    }
}

} // namespace mopac::serve
