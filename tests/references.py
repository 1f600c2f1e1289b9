"""The SGD and SAGA updates written step by step, independently of the
engine, as the references of its bitwise reduction checks.  Each gradient
comes from the scalar hook ``component_gradient``, not from the batched
``component_gradients`` the engine steps through.  Also the bootstrap
standard error drawn in one piece, the reference of the sliced one."""


def sgd_reference(problem, schedule, n_iters, indices, x0):
    """Plain stochastic gradient descent."""
    x = x0.copy()
    for i in range(n_iters):
        x = x - schedule.gamma(i + 1) * problem.component_gradient(
            int(indices[i]), x
        )
    return x


def saga_reference(problem, schedule, n_iters, indices, x0):
    """The variance-reduced update with stored gradients, left to right:
    x - gamma * (grad - row + mean), the mean recomputed every N updates."""
    n = problem.n_components
    x = x0.copy()
    rows = problem.gradient_table(x0)
    mean = rows.mean(axis=0)
    updates = 0
    for i in range(n_iters):
        k = int(indices[i])
        grad = problem.component_gradient(k, x)
        x = x - schedule.gamma(i + 1) * ((grad - rows[k]) + mean)
        mean = mean + (grad - rows[k]) / n
        rows[k] = grad
        updates += 1
        if updates == n:
            mean = rows.mean(axis=0)
            updates = 0
    return x


def bootstrap_stderr_reference(h, rng, resamples=1000):
    """Standard error of the variance of ``h`` over ``resamples`` bootstrap
    resamples, all drawn from ``rng`` in one call."""
    m = len(h)
    return h[rng.integers(0, m, (resamples, m))].var(axis=1, ddof=1).std(ddof=1)
