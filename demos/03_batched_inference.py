"""Drive a completion backend with scheduling, retries, and resume.

Jobs sort by prompt length for better device utilization, run through a
bounded pool with retries, and append to a checkpoint after every
completion.  Killing the run mid-flight and resuming reproduces the
uninterrupted output exactly; the demo does both and compares.
"""

import tempfile
from pathlib import Path

from rephrasing.inference import (
    BackendConfig,
    CheckpointWriter,
    JobKey,
    MockBackend,
    MockRule,
    RephraseJob,
    load_checkpoint,
    resume,
    run_batch,
    schedule,
)
from rephrasing.prompts import RenderedPrompt

cfg = BackendConfig(max_in_flight=4, max_retries=3, retry_backoff_s=0.0)
backend = MockBackend([MockRule(r"passage (\d+)", r"rephrased \1</text>")])

jobs = []
for i in range(12):
    prompt = RenderedPrompt(
        doc_id=f"doc{i}", index=0, template_id="qa_opt_en",
        text=f"passage {i} " + "x" * (i * 37 % 200),
        stop=("</text>",), temperature=0.0,
    )
    jobs.append(RephraseJob(JobKey(prompt.doc_id, 0, prompt.template_id), prompt))

plan = schedule(jobs)
print(f"execution order by prompt length: {list(plan.order)}")

results = run_batch(jobs, backend, cfg, plan=plan)
print(f"uninterrupted run: {sum(not r.failed for r in results)}/12 done,")
print(f"results restored to input order: {[r.key.doc_id for r in results[:4]]}...")

# Now the same run killed after 5 completions, then resumed.
with tempfile.TemporaryDirectory() as tmp:
    checkpoint_path = Path(tmp) / "checkpoint.jsonl"

    class Preempted(Exception):
        pass

    seen = 0

    try:
        with CheckpointWriter(checkpoint_path, "demo") as checkpoint:

            def preempt(result):
                global seen
                checkpoint.append(result)
                seen += 1
                if seen >= 5:
                    raise Preempted

            run_batch(jobs, MockBackend([MockRule(r"passage (\d+)", r"rephrased \1</text>")]),
                      cfg, on_result=preempt)
    except Preempted:
        print("\npreempted after 5 completions")

    replayed = resume(checkpoint_path, "demo")
    todo = [job for job in jobs if job.key not in replayed]
    print(f"resume: {len(replayed)} replayed from checkpoint, {len(todo)} to run")
    with CheckpointWriter(checkpoint_path, "demo") as checkpoint:
        run_batch(todo, MockBackend([MockRule(r"passage (\d+)", r"rephrased \1</text>")]),
                  cfg, on_result=checkpoint.append)
    # The ledger is the result store: a run with on_result keeps no results.
    recorded = load_checkpoint(checkpoint_path, "demo")
    resumed = [recorded[job.key] for job in jobs]

    identical = [r.to_obj() for r in resumed] == [r.to_obj() for r in results]
    print(f"resumed output identical to uninterrupted run: {identical}")
