# One history, and the window each feedback mode sends from it.
#
# The history grows by the chosen reply and its feedback at every iteration,
# whatever the mode. Succinct mode sends the succinct window, which stays at
# four messages no matter how deep the repair loop goes; full-context mode
# sends the whole history, and fails over to the succinct window only when the
# history would not fit the model's context window.

from hdlsmith import DesignTask
from hdlsmith.prompts import (
    Conversation,
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


def describe(conv: Conversation) -> str:
    roles = ", ".join(m.role.value for m in conv.messages)
    return f"{len(conv.messages)} messages, ~{estimate_tokens(conv)} tokens ({roles})"


history = initial_conversation(task)
for n in range(5):
    if n:
        history = next_conversation(
            history,
            f"```verilog\nmodule counter(); // attempt {n}\nendmodule\n```",
            f"Mismatches: {40 - 10 * n} in 40 samples",
        )
    print(f"\niteration {n}:")
    print(f"  history:              {describe(history)}")
    print(f"  succinct mode sends:  {describe(succinct_window(history))}")
    print(f"  full_context sends:   {describe(history)}")
print("\nOver the model's context limit, full_context fails over to the succinct window.")
