n = 4000;
steps = 50;
x = linspace(0, 2*pi, n);
u = sin(x) + 0.5 * sin(3 * x);
alpha = 0.2;
e0 = sum(u .* u);
for s = 1:steps
    left = circshift(u, 1);
    right = circshift(u, -1);
    u = u + alpha * (left - 2 * u + right);
end
e1 = sum(u .* u);
fprintf('energy %.6f -> %.6f (decay %.4f)\n', e0, e1, e1 / e0);
