# Succinct versus full-context conversation windows.
#
# The succinct window stays at four messages no matter how deep the repair
# loop goes; the full-context window grows by a reply and a feedback message
# per iteration.

from hdlsmith import DesignTask, FeedbackMode
from hdlsmith.prompts import (
    estimate_tokens,
    initial_conversation,
    next_conversation,
    succinct_window,
)

task = DesignTask(
    name="counter",
    prompt_text="// Build a 4-bit up counter with synchronous reset.\n"
    "module counter(input clk, input reset, output [3:0] q);",
    testbench_src="module tb(); endmodule",
)


def show(mode: FeedbackMode) -> None:
    print(f"\n{mode.value} window evolution:")
    conv = initial_conversation(task)
    print(f"  iteration 0: {len(conv.messages)} messages "
          f"({', '.join(m.role.value for m in conv.messages)})")
    for n in range(1, 5):
        conv = next_conversation(
            conv,
            f"```verilog\nmodule counter(); // attempt {n}\nendmodule\n```",
            f"Mismatches: {40 - 10 * n} in 40 samples",
            mode,
        )
        roles = ", ".join(m.role.value for m in conv.messages)
        print(f"  iteration {n}: {len(conv.messages)} messages ({roles})")
    if mode is FeedbackMode.FULL_CONTEXT:
        window = succinct_window(conv)
        print(f"  overflow failover would send {len(window.messages)} messages "
              f"(~{estimate_tokens(window)} tokens instead of ~{estimate_tokens(conv)})")


for mode in FeedbackMode:
    show(mode)
